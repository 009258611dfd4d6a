package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"bufir"
	"bufir/internal/eval"
)

// ---------------------------------------------------------------------------
// E24 (extension) — incremental refinement evaluation. The paper's
// refinement user resubmits a grown query from scratch every round;
// buffer-level reuse (BAF/RAP) is the paper's only mechanism for
// exploiting the overlap. E24 measures the layer above: carrying the
// accumulator state itself across ADD-ONLY steps, so the resubmission
// replays the already-processed term rounds for free and scans only
// the new lists — bit-identical to a cold evaluation of the grown
// query. Per step the experiment reports cold vs incremental pages
// read, pages processed (the buffer-independent measure of evaluation
// work), rounds replayed from the snapshot, and service time, and
// finishes with a verbatim resubmission served from the engine's
// result cache. The engine's refine counters (the /metrics surface)
// are printed last.
// ---------------------------------------------------------------------------

// RefineIncrStep is one refinement step's cold/incremental comparison.
type RefineIncrStep struct {
	Terms     int
	ColdPages int // cold evaluation, fresh pool: reads == full processing cost
	IncrPages int // incremental step: buffer misses
	IncrProc  int // incremental step: pages processed (hits + misses)
	Reused    int // term rounds replayed from the snapshot
	ColdTime  time.Duration
	IncrTime  time.Duration
	Exact     bool // ranking, scores, S_max bit-identical to cold
	Cached    bool // answered from the result cache (the final resubmission)
}

// RefineIncrTopic is one topic's ADD-ONLY schedule.
type RefineIncrTopic struct {
	TopicID int
	Steps   []RefineIncrStep
}

// RefineIncrResult is the E24 outcome.
type RefineIncrResult struct {
	BufferPages int
	Topics      []RefineIncrTopic
	Counters    bufir.EngineStats
}

// RunRefineIncr grows each of the first `topics` topic queries one
// term at a time in DF processing order (idf descending), submitting
// every cumulative query to an engine with incremental refinement
// enabled, and evaluates the same query cold for comparison. The last
// step of each topic resubmits the final query verbatim to exercise
// the result cache.
func (e *Env) RunRefineIncr(topics int) (*RefineIncrResult, error) {
	if topics < 1 {
		topics = 2
	}
	if topics > len(e.Queries) {
		topics = len(e.Queries)
	}
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}
	out := &RefineIncrResult{BufferPages: ix.NumPages() + 8}
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: e.evalOptions(bufir.DF),
		Workers:     1,
		BufferPages: out.BufferPages,
		Refine:      bufir.RefineOptions{Incremental: true},
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	for ti := 0; ti < topics; ti++ {
		// DF processing order: growing the query by its tail terms
		// makes every step a full-prefix resume.
		full := append(eval.Query{}, e.Queries[ti]...)
		sort.SliceStable(full, func(i, j int) bool {
			a, b := e.Idx.IDF(full[i].Term), e.Idx.IDF(full[j].Term)
			if a != b {
				return a > b
			}
			return full[i].Term < full[j].Term
		})
		topic := RefineIncrTopic{TopicID: e.Col.Topics[ti].ID}
		for cut := 1; cut <= len(full); cut++ {
			step, err := e.refineIncrStep(eng, ti, full[:cut])
			if err != nil {
				return nil, err
			}
			topic.Steps = append(topic.Steps, step)
		}
		// Verbatim resubmission: the result cache answers it.
		step, err := e.refineIncrStep(eng, ti, full)
		if err != nil {
			return nil, err
		}
		topic.Steps = append(topic.Steps, step)
		out.Topics = append(out.Topics, topic)
	}
	out.Counters = eng.Stats()
	return out, nil
}

// refineIncrStep submits q for user ti and evaluates it cold, pairing
// the two into one comparison row.
func (e *Env) refineIncrStep(eng *bufir.Engine, ti int, q eval.Query) (RefineIncrStep, error) {
	incr, err := eng.SearchContext(context.Background(), ti, q)
	if err != nil {
		return RefineIncrStep{}, err
	}
	cold, err := e.EvaluateCold(eval.DF, q, e.Params())
	if err != nil {
		return RefineIncrStep{}, err
	}
	exact := incr.Accumulators == cold.Accumulators && incr.Smax == cold.Smax &&
		len(incr.Top) == len(cold.Top)
	for i := 0; exact && i < len(cold.Top); i++ {
		exact = incr.Top[i].Doc == cold.Top[i].Doc && incr.Top[i].Score == cold.Top[i].Score
	}
	return RefineIncrStep{
		Terms:     len(q),
		ColdPages: cold.PagesRead,
		IncrPages: incr.PagesRead,
		IncrProc:  incr.PagesProcessed,
		Reused:    incr.ReusedRounds,
		ColdTime:  cold.Elapsed,
		IncrTime:  incr.Elapsed,
		Exact:     exact,
		Cached:    incr.Cached,
	}, nil
}

// Format prints the per-step tables and the serving counters.
func (r *RefineIncrResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Incremental refinement (E24): ADD-ONLY resubmissions resume from the carried accumulator snapshot\n")
	fmt.Fprintf(w, "(engine: DF, 1 worker, %d buffer pages; cold reference: fresh private pool per query)\n", r.BufferPages)
	for _, topic := range r.Topics {
		fmt.Fprintf(w, "\ntopic %d\n", topic.TopicID)
		fmt.Fprintf(w, "%6s %10s %10s %10s %7s %12s %12s %7s\n",
			"terms", "cold-read", "incr-read", "incr-proc", "reused", "cold-time", "incr-time", "note")
		for _, s := range topic.Steps {
			note := ""
			switch {
			case s.Cached:
				note = "cached"
			case !s.Exact:
				note = "MISMATCH"
			case s.Reused > 0:
				note = "resumed"
			}
			fmt.Fprintf(w, "%6d %10d %10d %10d %7d %12v %12v %7s\n",
				s.Terms, s.ColdPages, s.IncrPages, s.IncrProc, s.Reused,
				s.ColdTime.Round(time.Microsecond), s.IncrTime.Round(time.Microsecond), note)
		}
	}
	c := r.Counters
	fmt.Fprintf(w, "\nengine counters: refine_hits=%d refine_misses=%d refine_resumes=%d refine_reused_rounds=%d refine_invalidations=%d\n",
		c.RefineHits, c.RefineMisses, c.RefineResumes, c.RefineReusedRounds, c.RefineInvalidations)
}
