package experiments

import (
	"fmt"
	"io"
	"math"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E13 (ablations) — quantify the design choices DESIGN.md §5 calls out:
//
//	A1  BAF's higher-idf tie-break (Figure 2, step 3a) vs TermID order.
//	A2  RAP's tail-before-head tie rule (§3.3) vs head-first.
//	A3  ForceFirstPage — the cost of the "easy fix" that guarantees a
//	    newly added term is never ignored (§3.2.2).
//	A4  BAF's optimistic d_t estimate (footnote 5: assumes buffered
//	    pages form a list prefix) — estimation error under LRU, where
//	    the assumption holds, vs MRU, where it does not.
// ---------------------------------------------------------------------------

// AblationResult aggregates the four studies.
type AblationResult struct {
	// A1: total ADD-ONLY reads with/without the idf tie-break.
	TieBreakIDFReads, TieBreakNoneReads int
	// A2: total ADD-DROP reads under RAP with tail-first vs head-first
	// tie handling.
	TailFirstReads, HeadFirstReads int
	// A3: total ADD-ONLY reads with/without ForceFirstPage, and how
	// many term evaluations were silently skipped without it.
	NormalReads, ForcedReads int
	SkippedTerms             int
	// A4: mean absolute error of BAF's d_t estimate vs actual reads,
	// per policy.
	EstimateMAE map[string]float64
}

// RunAblations runs all four studies on the engineered topics at a
// mid-sweep buffer size.
func (e *Env) RunAblations() (*AblationResult, error) {
	out := &AblationResult{EstimateMAE: make(map[string]float64)}

	// --- A1: BAF tie-break ---
	seqAdd, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		return nil, err
	}
	size := e.WorkingSetPages(seqAdd) / 10
	if size < 1 {
		size = 1
	}
	p := e.Params()
	// A1's idf run is A3's "off" run too (same sequence, BAF, RAP, pool
	// size and params): one pass gives both its reads and the term
	// evaluations it skipped.
	out.TieBreakIDFReads, err = e.runTraced(seqAdd, "RAP", size, p, func(tr eval.TermTrace) {
		if tr.Skipped {
			out.SkippedTerms++
		}
	})
	if err != nil {
		return nil, err
	}
	out.NormalReads = out.TieBreakIDFReads
	pNoTie := p
	pNoTie.NoIDFTieBreak = true
	noTie, err := e.RunSequence(seqAdd, eval.BAF, "RAP", size, pNoTie, nil)
	if err != nil {
		return nil, err
	}
	out.TieBreakNoneReads = noTie.TotalReads

	// --- A2: RAP tail rule (ADD-DROP stresses dropped-term pages) ---
	seqDrop, err := e.Sequence(0, refine.AddDrop)
	if err != nil {
		return nil, err
	}
	dropSize := e.WorkingSetPages(seqDrop) / 10
	if dropSize < 1 {
		dropSize = 1
	}
	runRAPVariant := func(pol buffer.Policy) (int, error) {
		mgr, err := serialPool(dropSize, e.Store, e.Idx, pol)
		if err != nil {
			return 0, err
		}
		ev, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, p)
		if err != nil {
			return 0, err
		}
		total := 0
		for _, q := range seqDrop.Refinements {
			res, err := ev.Evaluate(eval.DF, q)
			if err != nil {
				return 0, err
			}
			total += res.PagesRead
		}
		return total, nil
	}
	if out.TailFirstReads, err = runRAPVariant(buffer.NewRAP()); err != nil {
		return nil, err
	}
	if out.HeadFirstReads, err = runRAPVariant(buffer.NewRAPHeadFirst()); err != nil {
		return nil, err
	}

	// --- A3: ForceFirstPage ---
	pForce := p
	pForce.ForceFirstPage = true
	forced, err := e.RunSequence(seqAdd, eval.BAF, "RAP", size, pForce, nil)
	if err != nil {
		return nil, err
	}
	out.ForcedReads = forced.TotalReads

	// --- A4: d_t estimation error under LRU vs MRU ---
	for _, policy := range []string{"LRU", "MRU"} {
		var absErr, n float64
		_, err := e.runTraced(seqAdd, policy, size, p, func(tr eval.TermTrace) {
			if tr.EstimatedReads >= 0 && !tr.Skipped {
				absErr += math.Abs(float64(tr.EstimatedReads - tr.PagesRead))
				n++
			}
		})
		if err != nil {
			return nil, err
		}
		if n > 0 {
			out.EstimateMAE[policy] = absErr / n
		}
	}
	return out, nil
}

// runTraced runs seq under BAF over a fresh pool of the named policy,
// calls visit with every round of every refinement, and returns the
// sequence's total reads.
func (e *Env) runTraced(seq *refine.Sequence, policy string, size int, p eval.Params, visit func(eval.TermTrace)) (int, error) {
	ev, _, err := e.newEvaluator(size, policy, p)
	if err != nil {
		return 0, err
	}
	reads := 0
	for _, q := range seq.Refinements {
		res, err := ev.Evaluate(eval.BAF, q)
		if err != nil {
			return 0, err
		}
		reads += res.PagesRead
		for _, tr := range res.Trace {
			visit(tr)
		}
	}
	return reads, nil
}

// Format prints the ablation table.
func (r *AblationResult) Format(w io.Writer) {
	fmt.Fprintln(w, "Ablations (ADD-ONLY/ADD-DROP QUERY1 at 1/10 working-set buffers)")
	fmt.Fprintf(w, "A1 BAF tie-break:      idf %d reads, termid %d reads\n",
		r.TieBreakIDFReads, r.TieBreakNoneReads)
	fmt.Fprintf(w, "A2 RAP tie rule:       tail-first %d reads, head-first %d reads\n",
		r.TailFirstReads, r.HeadFirstReads)
	fmt.Fprintf(w, "A3 ForceFirstPage:     off %d reads (%d terms silently skipped), on %d reads\n",
		r.NormalReads, r.SkippedTerms, r.ForcedReads)
	fmt.Fprintf(w, "A4 BAF d_t estimate:   MAE %.2f pages under LRU, %.2f under MRU\n",
		r.EstimateMAE["LRU"], r.EstimateMAE["MRU"])
	fmt.Fprintln(w, "   (footnote 5's optimistic prefix assumption: errors stay small")
	fmt.Fprintln(w, "    because p_t is exact and partial residency is short-lived)")
}
