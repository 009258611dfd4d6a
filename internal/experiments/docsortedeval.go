package experiments

// Term-at-a-time ranked retrieval over document-ordered inverted lists
// — the traditional physical design of [ZMSD92, MZ94, Bro95] that the
// paper uses as its implicit baseline: footnote 14 observes that such
// algorithms "can be expected to read most of the inverted list pages"
// and "would perform significantly worse than DF" on refinement
// workloads.
//
// Three strategies are provided:
//
//	OR        exhaustive evaluation: every page of every query term.
//	Quit      Moffat-Zobel accumulator limiting: once the accumulator
//	          budget is exhausted, remaining (lower-idf) terms are not
//	          processed at all.
//	Continue  as Quit, but remaining terms still update documents that
//	          already hold accumulators — which requires reading their
//	          full lists anyway, saving memory but not I/O [MZ94].
//
// E17 (docsorted.go) drives it.

import (
	"context"
	"fmt"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// docSortedStrategy selects the evaluation behavior.
type docSortedStrategy int

const (
	// strategyOR is exhaustive disjunctive evaluation.
	strategyOR docSortedStrategy = iota
	// strategyQuit stops processing terms once the accumulator limit
	// is hit.
	strategyQuit
	// strategyContinue stops adding accumulators but keeps updating
	// existing ones.
	strategyContinue
)

// String names the strategy.
func (s docSortedStrategy) String() string {
	switch s {
	case strategyOR:
		return "OR"
	case strategyQuit:
		return "QUIT"
	case strategyContinue:
		return "CONTINUE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// docSortedEvalResult carries the ranked answer and execution
// statistics.
type docSortedEvalResult struct {
	Top              []rank.ScoredDoc
	Accumulators     int
	PagesRead        int
	PagesProcessed   int
	EntriesProcessed int
	// TermsProcessed counts terms whose lists were touched
	// (strategyQuit can skip trailing terms entirely).
	TermsProcessed int
}

// docSortedEvaluator runs doc-sorted evaluation through a buffer
// pool. Build the index with postings.BuildDocSorted.
type docSortedEvaluator struct {
	Idx *postings.Index
	Buf buffer.Pool
	// TopN is the answer size n.
	TopN int
	// AccumLimit bounds the candidate set for strategyQuit and
	// strategyContinue (ignored by strategyOR). Zero means no limit.
	AccumLimit int
}

// newDocSortedEvaluator wires the evaluator.
func newDocSortedEvaluator(ix *postings.Index, buf buffer.Pool, topN int) (*docSortedEvaluator, error) {
	if ix == nil || buf == nil {
		return nil, fmt.Errorf("docsorted: nil index or buffer pool")
	}
	if topN < 1 {
		return nil, fmt.Errorf("docsorted: topN %d < 1", topN)
	}
	return &docSortedEvaluator{Idx: ix, Buf: buf, TopN: topN}, nil
}

// Evaluate runs the query under the strategy. Terms are processed in
// decreasing idf order, as in the classic algorithms.
func (e *docSortedEvaluator) Evaluate(strategy docSortedStrategy, q eval.Query) (*docSortedEvalResult, error) {
	if len(q) == 0 {
		return nil, fmt.Errorf("docsorted: empty query")
	}
	for _, qt := range q {
		if int(qt.Term) < 0 || int(qt.Term) >= len(e.Idx.Terms) {
			return nil, fmt.Errorf("docsorted: term id %d out of range", qt.Term)
		}
		if qt.Fqt < 1 {
			return nil, fmt.Errorf("docsorted: query frequency %d < 1", qt.Fqt)
		}
	}
	ordered := make(eval.Query, len(q))
	copy(ordered, q)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := e.Idx.IDF(ordered[i].Term), e.Idx.IDF(ordered[j].Term)
		if a != b {
			return a > b
		}
		return ordered[i].Term < ordered[j].Term
	})

	// Announce the query for RAP-managed pools.
	weights := make(buffer.QueryWeights, len(q))
	for _, qt := range q {
		weights[qt.Term] = rank.QueryWeight(qt.Fqt, e.Idx.IDF(qt.Term))
	}
	e.Buf.SetQuery(weights)

	res := &docSortedEvalResult{}
	acc := make(map[postings.DocID]float64, 256)
	limited := false // strategyQuit/strategyContinue switch has tripped

	for _, qt := range ordered {
		if limited && strategy == strategyQuit {
			break
		}
		tm := &e.Idx.Terms[qt.Term]
		wqt := rank.QueryWeight(qt.Fqt, tm.IDF)
		res.TermsProcessed++
		for p := 0; p < tm.NumPages; p++ {
			frame, missed, err := e.Buf.FetchContext(context.TODO(), e.Idx.PageOf(qt.Term, p))
			if err != nil {
				return nil, fmt.Errorf("docsorted: term %q page %d: %w", tm.Name, p, err)
			}
			res.PagesProcessed++
			if missed {
				res.PagesRead++
			}
			for _, entry := range frame.Data() {
				res.EntriesProcessed++
				if old, ok := acc[entry.Doc]; ok {
					acc[entry.Doc] = old + rank.DocWeight(entry.Freq, tm.IDF)*wqt
					continue
				}
				if limited {
					continue // strategyContinue: no new accumulators
				}
				acc[entry.Doc] = rank.DocWeight(entry.Freq, tm.IDF) * wqt
				if strategy != strategyOR && e.AccumLimit > 0 && len(acc) >= e.AccumLimit {
					limited = true
				}
			}
			e.Buf.Unpin(frame)
		}
	}

	res.Top = rank.TopN(acc, e.Idx.DocLen, e.TopN)
	res.Accumulators = len(acc)
	return res, nil
}
