package eval

import (
	"context"
	"time"

	"bufir/internal/evalsafe"
)

// schedOf maps the safe Algorithm constants onto evalsafe schedules.
func schedOf(algo Algorithm) evalsafe.Schedule {
	switch algo {
	case NRA:
		return evalsafe.NRA
	case MAXSCORE:
		return evalsafe.Maxscore
	default:
		return evalsafe.TA
	}
}

// evaluateSafe runs a rank-safe evaluation (TA/NRA/MAXSCORE) through
// internal/evalsafe and translates its Outcome into the Result shape
// the rest of the stack consumes. The filtering constants are ignored
// — a safe method's answer is exhaustive DF's by contract — while
// TopN, FaultBudget, the context, and the anytime/degraded semantics
// carry over unchanged.
func (e *Evaluator) evaluateSafe(ctx context.Context, algo Algorithm, q Query) (*Result, error) {
	start := time.Now()
	terms := make([]evalsafe.QueryTerm, len(q))
	for i, qt := range q {
		terms[i] = evalsafe.QueryTerm{Term: qt.Term, Fqt: qt.Fqt}
	}
	out, err := evalsafe.Evaluate(ctx, e.Idx, e.Buf, terms, schedOf(algo), evalsafe.Options{
		TopN:        e.Params.TopN,
		FaultBudget: e.Params.FaultBudget,
	})
	if out == nil {
		return nil, err
	}
	res := &Result{
		Top:                out.Top,
		Accumulators:       out.Candidates,
		EntriesProcessed:   out.EntriesProcessed,
		PagesProcessed:     out.PagesProcessed,
		PagesRead:          out.PagesRead,
		SelectionInquiries: out.SelectionInquiries,
		Smax:               out.Smax,
		Partial:            out.Partial,
		Degraded:           out.Degraded,
		Faults:             out.Faults,
		Trace:              safeTrace(e, out),
		Elapsed:            time.Since(start),
	}
	return res, err
}

// safeTrace renders the per-list detail as TermTrace rows in canonical
// order. Safe methods have no thresholds (FIns/FAdd stay 0) and no
// single S_max trajectory; a list the proof never opened is marked
// Skipped — its absence from the scan is the method's savings.
func safeTrace(e *Evaluator, out *evalsafe.Outcome) []TermTrace {
	trace := make([]TermTrace, len(out.PerTerm))
	for i, st := range out.PerTerm {
		tm := &e.Idx.Terms[st.Term]
		trace[i] = TermTrace{
			Term:             st.Term,
			Name:             tm.Name,
			IDF:              tm.IDF,
			Fqt:              st.Fqt,
			ListPages:        st.ListPages,
			EstimatedReads:   -1,
			PagesProcessed:   st.PagesProcessed,
			PagesRead:        st.PagesRead,
			PagesHit:         st.PagesHit,
			EntriesProcessed: st.EntriesProcessed,
			Skipped:          st.PagesProcessed == 0 && st.ListPages > 0 && !st.Truncated,
			Truncated:        st.Truncated,
			Faulted:          st.Faulted,
		}
	}
	return trace
}
