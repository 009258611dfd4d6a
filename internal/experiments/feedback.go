package experiments

import (
	"fmt"
	"io"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/refine"
	"bufir/internal/storage"
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
	seq, err := feedbackSequence(e.Idx, e.Store, initial, feedbackOptions{
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

// E16's workload: each refinement grows the query with the terms that
// score highest in the current answer's top documents (Rocchio-style
// expansion [SB90]), exactly what an IR system's "more like this"
// button does. Construction is offline (uncounted reads), like the
// contribution ranking of §5.1.2.

// feedbackOptions tunes feedback sequence construction.
type feedbackOptions struct {
	// Rounds is the number of feedback refinements after the initial
	// query (default 5).
	Rounds int
	// AddPerRound is how many expansion terms each round adds
	// (default refine.GroupSize, the paper's 3).
	AddPerRound int
	// FeedbackDocs is how many top documents feed the expansion
	// (default 10).
	FeedbackDocs int
	// MaxCandidateIDF filters out ultra-rare terms whose high idf
	// would dominate the Rocchio weight despite appearing in a single
	// feedback document (default 12).
	MaxCandidateIDF float64
}

func (o *feedbackOptions) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	if o.AddPerRound == 0 {
		o.AddPerRound = refine.GroupSize
	}
	if o.FeedbackDocs == 0 {
		o.FeedbackDocs = 10
	}
	if o.MaxCandidateIDF == 0 {
		o.MaxCandidateIDF = 12
	}
}

// feedbackSequence builds a refinement sequence by relevance feedback:
// refinement 1 is the initial query; each later refinement adds the
// AddPerRound terms with the highest Rocchio weight (sum of w_{d,t}
// over the previous refinement's top documents) that are not yet in
// the query. The evaluate callback runs a query and returns its
// ranked answer (callers typically use an exhaustive evaluator with
// ample buffers, mirroring §5.1.2's use of unoptimized evaluation for
// workload construction).
func feedbackSequence(
	ix *postings.Index,
	st storage.PageStore,
	initial eval.Query,
	opts feedbackOptions,
	evaluate func(eval.Query) ([]rank.ScoredDoc, error),
) (*refine.Sequence, error) {
	opts.defaults()
	if len(initial) == 0 {
		return nil, fmt.Errorf("feedback: empty initial query")
	}
	seq := &refine.Sequence{TopicID: 0, Kind: refine.AddOnly}
	current := append(eval.Query{}, initial...)
	seq.Refinements = append(seq.Refinements, append(eval.Query{}, current...))

	inQuery := make(map[postings.TermID]bool, len(current))
	for _, qt := range current {
		inQuery[qt.Term] = true
	}

	for round := 0; round < opts.Rounds; round++ {
		top, err := evaluate(current)
		if err != nil {
			return nil, err
		}
		if len(top) > opts.FeedbackDocs {
			top = top[:opts.FeedbackDocs]
		}
		if len(top) == 0 {
			break
		}
		expansion, err := expansionTerms(ix, st, top, inQuery, opts)
		if err != nil {
			return nil, err
		}
		if len(expansion) == 0 {
			break
		}
		if len(expansion) > opts.AddPerRound {
			expansion = expansion[:opts.AddPerRound]
		}
		for _, t := range expansion {
			current = append(current, eval.QueryTerm{Term: t, Fqt: 1})
			inQuery[t] = true
		}
		seq.Refinements = append(seq.Refinements, append(eval.Query{}, current...))
	}
	// Record the final query's terms as the "ranked" set for
	// compatibility with sequence consumers.
	for _, qt := range current {
		seq.Ranked = append(seq.Ranked, refine.RankedTerm{QueryTerm: qt})
	}
	return seq, nil
}

// expansionTerms scores every vocabulary term by its total document
// weight across the feedback documents and returns the best ones not
// already in the query, ordered by descending Rocchio weight.
func expansionTerms(
	ix *postings.Index,
	st storage.PageStore,
	top []rank.ScoredDoc,
	inQuery map[postings.TermID]bool,
	opts feedbackOptions,
) ([]postings.TermID, error) {
	want := make(map[postings.DocID]bool, len(top))
	for _, sd := range top {
		want[sd.Doc] = true
	}
	// Invert on the fly: scan each list's pages and accumulate the
	// weight the feedback documents give each term. This is the
	// offline construction path (uncounted reads).
	weights := make(map[postings.TermID]float64)
	for t := range ix.Terms {
		tid := postings.TermID(t)
		tm := &ix.Terms[t]
		if inQuery[tid] || tm.IDF > opts.MaxCandidateIDF || tm.IDF <= 0 {
			continue
		}
		found := 0
		for p := 0; p < tm.NumPages && found < len(want); p++ {
			page, err := st.ReadQuiet(ix.PageOf(tid, p))
			if err != nil {
				return nil, err
			}
			for _, e := range page {
				if want[e.Doc] {
					found++
					weights[tid] += rank.DocWeight(e.Freq, tm.IDF)
				}
			}
		}
	}
	out := make([]postings.TermID, 0, len(weights))
	for t := range weights {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		wi, wj := weights[out[i]], weights[out[j]]
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out, nil
}
