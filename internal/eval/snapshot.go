// Snapshot/restore of DF evaluation state across refinement steps.
//
// The paper's §2.1 user model is a refinement sequence, and an
// ADD-ONLY step repeats, term for term, the accumulation work of the
// previous query before doing anything new. That repetition is
// mechanical under DF: the processing order (decreasing idf, TermID
// tie-break) is a pure function of the query and the index, so a cold
// evaluation of the refined query walks the same state trajectory as
// the previous evaluation for as long as the two canonical orders
// agree. A Snapshot records that trajectory — per round, the
// chronological sequence of accumulator assignments plus the S_max
// reached — and EvaluateResumeContext replays the longest matching
// clean prefix instead of re-scanning those lists, then runs the
// remaining rounds normally. Replaying assignments in their original
// order reproduces the exact floating-point values a cold run would
// compute, which is what makes the resumed result bit-identical, not
// merely approximately equal.
//
// Only DF is resumable. BAF's round order depends on buffer residency
// (b_t), which has changed by the next step, and WebLegend's term
// selection depends on residency outright — for those algorithms
// EvaluateResumeContext silently degenerates to a cold evaluation and
// returns a nil snapshot.
package eval

import (
	"context"

	"bufir/internal/postings"
)

// accWrite is one accumulator assignment: document doc's accumulator
// was set to val. Replaying a round's writes in order reproduces the
// exact map state the original scan left behind.
type accWrite struct {
	Doc postings.DocID
	Val float64
}

// roundRec is the recorded effect of one DF term round.
type roundRec struct {
	Term postings.TermID
	Fqt  int
	// SmaxAfter is S_max at the end of the round; the next round's
	// thresholds derive from it (Equation 5).
	SmaxAfter float64
	// Writes are the round's accumulator assignments in chronological
	// order. Empty for skipped rounds and for rounds whose every entry
	// fell below f_add.
	Writes []accWrite
	// Clean is true when the round's full effect was applied: not
	// truncated by the context, not abandoned by a fault. Only a clean
	// round is a legal resume point — the prefix matcher stops in
	// front of the first non-clean round, so a degraded or partial
	// evaluation still yields a usable (shorter) snapshot prefix.
	Clean bool
	// Trace is the round's original trace row, replayed (with Reused
	// set and cost counters zeroed) into resumed results.
	Trace TermTrace
}

// Snapshot is the resumable state of a completed (or cleanly
// prefixed) DF evaluation. It is immutable after creation: resuming
// from it never mutates it, so one snapshot may seed many resumes.
type Snapshot struct {
	algo   Algorithm
	params Params
	rounds []roundRec
}

// Algo returns the algorithm that produced the snapshot.
func (s *Snapshot) Algo() Algorithm { return s.algo }

// Rounds returns how many term rounds the snapshot records.
func (s *Snapshot) Rounds() int { return len(s.rounds) }

// CleanRounds returns the length of the leading run of clean rounds —
// the most that any resume can possibly reuse.
func (s *Snapshot) CleanRounds() int {
	for i, r := range s.rounds {
		if !r.Clean {
			return i
		}
	}
	return len(s.rounds)
}

// Query reconstructs the recorded query in its canonical DF
// processing order.
func (s *Snapshot) Query() Query {
	q := make(Query, len(s.rounds))
	for i, r := range s.rounds {
		q[i] = QueryTerm{Term: r.Term, Fqt: r.Fqt}
	}
	return q
}

// resumePrefix returns how many leading rounds of ord can be replayed
// from prev: the longest p such that rounds 0..p-1 of prev are clean
// and match ord term-for-term with identical f_qt. Identical f_qt is
// required because the thresholds (Equation 5) divide by f_{q,t}: a
// raised frequency changes the round's own filtering even when S_max
// going in is the same. Params must match exactly — CIns/CAdd shape
// the thresholds, ForceFirstPage and FaultBudget shape the scan — and
// both trajectories must be DF.
func (e *Evaluator) resumePrefix(ord Query, prev *Snapshot) int {
	if prev == nil || prev.algo != DF || prev.params != e.Params {
		return 0
	}
	p := 0
	for p < len(prev.rounds) && p < len(ord) {
		r := prev.rounds[p]
		if !r.Clean || r.Term != ord[p].Term || r.Fqt != ord[p].Fqt {
			break
		}
		p++
	}
	return p
}

// replay applies the first p rounds of prev to a fresh run:
// accumulator assignments in their original chronological order,
// S_max stepped to each round's recorded value, a Reused trace row
// per round with the cost counters zeroed (no buffer traffic
// happened), the round's list finished. When the run is recording a
// new snapshot, the replayed rounds are copied into it verbatim, so
// the new snapshot covers the full trajectory and can itself seed
// further resumes.
func (r *run) replay(prev *Snapshot, p int) {
	for i := 0; i < p; i++ {
		rr := prev.rounds[i]
		for _, w := range rr.Writes {
			r.acc[w.Doc] = w.Val
		}
		r.smax = rr.SmaxAfter
		tr := rr.Trace
		tr.PagesProcessed = 0
		tr.PagesRead = 0
		tr.PagesHit = 0
		tr.EntriesProcessed = 0
		tr.Elapsed = 0
		tr.Reused = true
		r.res.Trace = append(r.res.Trace, tr)
		r.res.ReusedRounds++
		r.lists[i].done = true
		r.live--
		if r.recording {
			// Append the element, never the sub-slice: r.rec must own
			// its backing array so a later append cannot clobber prev.
			r.rec = append(r.rec, rr)
		}
	}
}

// EvaluateResumeContext evaluates q like EvaluateContext, but resumes
// from prev where legal and returns a new snapshot of the completed
// trajectory for the next step.
//
// Resume legality: prev was produced by this evaluator's parameters
// under DF, and a leading run of q's canonical DF order matches
// prev's recorded rounds term-for-term with unchanged f_qt (all
// clean). The matched prefix is replayed from the record — zero pages
// touched — and only the remaining rounds scan their lists, with
// thresholds re-derived from the carried S_max. The returned result
// is bit-identical to a cold EvaluateContext of q: same Top (docs and
// scores), same Accumulators, same Smax. Result.ReusedRounds and the
// Reused trace rows show what was skipped.
//
// A nil prev, a non-DF algo, or a prev that doesn't prefix-match
// (e.g. after a DROP, or when an added term sorts into the middle of
// the old order) simply resumes nothing: the evaluation is cold.
//
// The returned snapshot is nil when algo is not DF and on every
// error, including context expiry — a truncated trajectory is not a
// legal resume point, and the caller should keep its previous
// snapshot. A completed-but-degraded evaluation (fault budget) does
// return a snapshot; its faulted rounds are marked not-clean, so a
// later resume reuses only the clean prefix in front of them.
func (e *Evaluator) EvaluateResumeContext(ctx context.Context, algo Algorithm, q Query, prev *Snapshot) (*Result, *Snapshot, error) {
	return e.evaluate(ctx, algo, q, prev, true)
}
