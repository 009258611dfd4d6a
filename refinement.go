package bufir

import (
	"context"
	"fmt"
	"time"
)

// RefineOptions tunes a refinement session.
type RefineOptions struct {
	// Incremental enables accumulator-state reuse across ADD-ONLY
	// steps: after each completed submission the post-query evaluation
	// state (accumulators, S_max, per-term trace) is snapshotted, and
	// a step that only adds terms (or raises frequencies) resumes from
	// the snapshot — only the new terms' lists are scanned, with
	// thresholds re-derived from the carried S_max. Results are
	// bit-identical to a cold evaluation of the refined query; the
	// saved work shows up as Result.ReusedRounds and Reused trace
	// rows. A step that drops a term (or lowers a frequency)
	// invalidates the snapshot and falls back to a cold evaluation,
	// recorded as RefinementStep.Invalidated. Reuse requires DF (BAF's
	// round order depends on buffer residency and cannot be resumed
	// exactly); under BAF the option is accepted but never resumes.
	Incremental bool
	// CacheEntries bounds the engine-level result cache (LRU over a
	// user's canonicalized queries): resubmitting a query the engine
	// already answered — permuted term order and split duplicate terms
	// included — returns the cached ranking with Result.Cached set and
	// zero cost counters, without evaluating. 0 selects the default of
	// 256; negative disables result caching while keeping snapshot
	// resume. Session refinements keep no result cache, so the knob
	// only matters on EngineConfig.Refine.
	CacheEntries int
}

// Refinement is a stateful query-refinement session — the paper's
// §2.1 user model: "the user refines the query by adding or removing
// terms, and resubmits it. This may occur repeatedly, until the user
// is satisfied with the returned results." Each Add or Drop mutates
// the current query and resubmits it through the underlying Session,
// whose warm buffer pool is exactly what BAF and RAP exploit; with
// RefineOptions.Incremental the evaluation state itself is carried
// across ADD-ONLY steps on top of the buffer-level reuse.
//
// The carried snapshot is the Session's, as an engine user's is: a
// step resumes it only when it is an ADD-ONLY step of the query that
// produced it on the current index generation (a live commit or merge
// swap makes the next step run cold, recorded as Invalidated).
type Refinement struct {
	session *Session
	opts    RefineOptions
	current Query
	// History records every successful submission's outcome.
	History []RefinementStep
}

// RefinementStep is one submission's outcome.
type RefinementStep struct {
	Terms     int
	DiskReads int
	// Partial is true when the step's result was cut short by context
	// cancellation or deadline expiry (only steps that commit appear
	// here, so Partial is false in History; it is meaningful on the
	// step a caller builds from a returned partial result).
	Partial bool
	// Degraded is true when the step completed with term rounds lost
	// to I/O faults within the session's FaultBudget.
	Degraded bool
	// Elapsed is the evaluation wall time of the step.
	Elapsed time.Duration
	// Resumed is true when the step reused accumulator state from the
	// previous submission (RefineOptions.Incremental, ADD-ONLY step
	// under DF); ReusedRounds counts the term rounds replayed without
	// touching the buffer.
	Resumed      bool
	ReusedRounds int
	// Invalidated is true when the step dropped the carried snapshot
	// because the query change was not ADD-ONLY: the evaluation ran
	// cold.
	Invalidated bool
}

// StartRefinement begins a refinement session with the initial query
// and evaluates it under ctx (see SearchContext for the cancellation
// contract); see RefineOptions.Incremental for evaluation-state reuse
// across ADD-ONLY steps.
func (s *Session) StartRefinement(ctx context.Context, initial Query, opts RefineOptions) (*Refinement, *Result, error) {
	r := &Refinement{session: s, opts: opts}
	res, err := r.resubmit(ctx, initial)
	if err != nil {
		return nil, nil, err
	}
	return r, res, nil
}

// Current returns a copy of the current query.
func (r *Refinement) Current() Query {
	return append(Query{}, r.current...)
}

// AddContext appends terms to the query and resubmits it under ctx.
// Terms already in the query have their frequencies raised instead
// (repeated terms come from relevance feedback, §2.2). A canceled or
// expired step commits nothing: the current query, History and the
// carried snapshot all keep their pre-step state, and the anytime
// partial result is returned alongside the context's error (see
// SearchContext).
func (r *Refinement) AddContext(ctx context.Context, terms ...QueryTerm) (*Result, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("bufir: no terms to add")
	}
	next := append(Query{}, r.current...)
	for _, qt := range terms {
		found := false
		for i := range next {
			if next[i].Term == qt.Term {
				next[i].Fqt += qt.Fqt
				found = true
				break
			}
		}
		if !found {
			next = append(next, qt)
		}
	}
	return r.resubmit(ctx, next)
}

// DropContext removes a term from the query and resubmits it under
// ctx (see AddContext for the mid-step cancellation contract).
func (r *Refinement) DropContext(ctx context.Context, term TermID) (*Result, error) {
	next := make(Query, 0, len(r.current))
	for _, qt := range r.current {
		if qt.Term != term {
			next = append(next, qt)
		}
	}
	if len(next) == len(r.current) {
		return nil, fmt.Errorf("bufir: term %d not in the current query", term)
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("bufir: cannot drop the last query term")
	}
	return r.resubmit(ctx, next)
}

// resubmit evaluates q and commits it as the current query on
// success. Failed or canceled submissions commit nothing — not the
// query, not a History entry, not the snapshot — so a Refinement is
// always in the state of its last successful step; a canceled step's
// partial result is still returned alongside the error.
func (r *Refinement) resubmit(ctx context.Context, q Query) (*Result, error) {
	res, invalidated, err := r.session.user.Step(ctx, r.session.algo, q, r.opts.Incremental)
	if err != nil {
		return res, err
	}
	r.commit(q, res, RefinementStep{
		Resumed:      res.ReusedRounds > 0,
		ReusedRounds: res.ReusedRounds,
		Invalidated:  invalidated,
	})
	return res, nil
}

// commit records a successful submission.
func (r *Refinement) commit(q Query, res *Result, step RefinementStep) {
	step.Terms = len(q)
	step.DiskReads = res.PagesRead
	step.Partial = res.Partial
	step.Degraded = res.Degraded
	step.Elapsed = res.Elapsed
	r.current = q
	r.History = append(r.History, step)
}

// TotalDiskReads sums the session's submissions.
func (r *Refinement) TotalDiskReads() int {
	total := 0
	for _, step := range r.History {
		total += step.DiskReads
	}
	return total
}
