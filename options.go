package bufir

import (
	"fmt"

	"bufir/internal/eval"
)

// EvalOptions is the set of evaluation knobs shared by every way of
// running queries — private Sessions (SessionConfig) and the
// concurrent Engine (EngineConfig), whose one shared pool serves every
// user. The configs embed it, so the knobs read the same everywhere; in
// composite literals set them through the embedded field:
//
//	bufir.SessionConfig{EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF}}
type EvalOptions struct {
	// Algorithm is the evaluation method: DF, BAF or Maxscore (default
	// DF). DF and BAF are the paper's unsafe filtering methods, tuned by
	// CAdd/CIns; Maxscore is exact evaluation — bit-identical to an
	// exhaustive DF evaluation because it is one — and ignores the
	// filtering constants entirely.
	Algorithm Algorithm
	// CAdd and CIns are the filtering constants. Both zero selects the
	// config's default tuning — the paper's WSJ calibration
	// (CAdd=0.002, CIns=0.07) for private Sessions, the
	// collection-tuned constants for Engines (their workloads run on
	// the synthetic collection the tuning was fit to) — unless
	// Unfiltered is set.
	CAdd, CIns float64
	// Unfiltered disables the unsafe optimization entirely (safe,
	// exhaustive evaluation).
	Unfiltered bool
	// TopN is the result size n (default 20).
	TopN int
	// FaultBudget is the per-query error budget: how many term rounds
	// may be lost to I/O faults (fetch errors that survived the
	// buffer's retries) before the query itself errors. A query that
	// spends budget completes as an anytime ranking with
	// Result.Degraded set and the lost lists marked Faulted in the
	// trace. 0 — the default — fails the query on the first fault.
	FaultBudget int
}

// params resolves the options into evaluator parameters: TopN defaults
// to 20, and when filtering is enabled with both constants zero, CAdd
// and CIns are taken from fallback. This is the single defaulting and
// validation path for all configs; an unknown Algorithm is rejected
// here, at construction, rather than failing every query.
func (o EvalOptions) params(fallback eval.Params) (eval.Params, error) {
	if o.Algorithm < eval.DF || o.Algorithm > eval.MAXSCORE {
		return eval.Params{}, fmt.Errorf("bufir: unknown algorithm %v", o.Algorithm)
	}
	p := eval.Params{
		CAdd:        o.CAdd,
		CIns:        o.CIns,
		TopN:        o.TopN,
		FaultBudget: o.FaultBudget,
	}
	if p.TopN == 0 {
		p.TopN = 20
	}
	if !o.Unfiltered && p.CAdd == 0 && p.CIns == 0 {
		p.CAdd, p.CIns = fallback.CAdd, fallback.CIns
	}
	if err := p.Validate(); err != nil {
		return eval.Params{}, err
	}
	return p, nil
}
