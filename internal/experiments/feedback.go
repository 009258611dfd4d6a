package experiments

import (
	"fmt"
	"io"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/rank"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E16 (extension) — §7 future work: "dealing with ... query refinement
// workloads generated using relevance feedback". Refinement sequences
// are grown by Rocchio expansion from the previous answer's top
// documents instead of replaying a fixed topic, and the six
// algorithm/policy combinations are swept as in Figures 5-6. The
// question: do the paper's conclusions survive when the refinement
// terms come from feedback rather than a static topic?
// ---------------------------------------------------------------------------

// FeedbackResult mirrors SweepResult for the feedback workload.
type FeedbackResult struct {
	TopicID    int
	Rounds     int
	FinalTerms int
	WorkingSet int
	Sizes      []int
	Series     map[string][]int
}

// RunFeedback builds a feedback sequence seeded with topic ti's three
// strongest terms and sweeps it.
func (e *Env) RunFeedback(ti, points int) (*FeedbackResult, error) {
	ranked, err := e.RankedTerms(ti)
	if err != nil {
		return nil, err
	}
	n := 3
	if n > len(ranked) {
		n = len(ranked)
	}
	var initial eval.Query
	for _, rt := range ranked[:n] {
		initial = append(initial, rt.QueryTerm)
	}

	// Exhaustive evaluator with ample buffers for construction.
	mgr, err := serialPool(e.Idx.NumPagesTotal+1, e.Store, e.Idx, buffer.NewLRU())
	if err != nil {
		return nil, err
	}
	fullEv, err := eval.NewEvaluator(e.Idx, mgr, e.Conv, eval.Params{TopN: 20})
	if err != nil {
		return nil, err
	}
	seq, err := refine.FeedbackSequence(e.Idx, e.Store, initial, refine.FeedbackOptions{
		Rounds: 8, AddPerRound: refine.GroupSize,
	}, func(q eval.Query) ([]rank.ScoredDoc, error) {
		res, err := fullEv.Evaluate(eval.DF, q)
		if err != nil {
			return nil, err
		}
		return res.Top, nil
	})
	if err != nil {
		return nil, err
	}
	// Construction must not pollute the measured runs.
	e.Store.ResetReads()

	ws := e.WorkingSetPages(seq)
	out := &FeedbackResult{
		TopicID:    e.Col.Topics[ti].ID,
		Rounds:     len(seq.Refinements) - 1,
		FinalTerms: len(seq.Refinements[len(seq.Refinements)-1]),
		WorkingSet: ws,
		Sizes:      SweepSizes(ws, points),
		Series:     make(map[string][]int, len(Combos)),
	}
	for _, combo := range Combos {
		series := make([]int, 0, len(out.Sizes))
		for _, size := range out.Sizes {
			sr, err := e.RunSequence(seq, combo.Algo, combo.Policy, size, e.Params(), nil)
			if err != nil {
				return nil, err
			}
			series = append(series, sr.TotalReads)
		}
		out.Series[combo.String()] = series
	}
	return out, nil
}

// Format prints the sweep.
func (r *FeedbackResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Relevance-feedback refinement (§7 future work): topic %d seed, %d rounds to %d terms (working set %d)\n",
		r.TopicID, r.Rounds, r.FinalTerms, r.WorkingSet)
	fmt.Fprintf(w, "%8s", "buffers")
	for _, c := range Combos {
		fmt.Fprintf(w, "  %8s", c)
	}
	fmt.Fprintln(w)
	for i, size := range r.Sizes {
		fmt.Fprintf(w, "%8d", size)
		for _, c := range Combos {
			fmt.Fprintf(w, "  %8d", r.Series[c.String()][i])
		}
		fmt.Fprintln(w)
	}
}
