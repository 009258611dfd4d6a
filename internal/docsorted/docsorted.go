// Package docsorted implements term-at-a-time ranked retrieval over
// document-ordered inverted lists — the traditional physical design of
// [ZMSD92, MZ94, Bro95] that the paper uses as its implicit baseline:
// footnote 14 observes that such algorithms "can be expected to read
// most of the inverted list pages" and "would perform significantly
// worse than DF" on refinement workloads.
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
package docsorted

import (
	"context"
	"fmt"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// Strategy selects the evaluation behavior.
type Strategy int

const (
	// OR is exhaustive disjunctive evaluation.
	OR Strategy = iota
	// Quit stops processing terms once the accumulator limit is hit.
	Quit
	// Continue stops adding accumulators but keeps updating existing
	// ones.
	Continue
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case OR:
		return "OR"
	case Quit:
		return "QUIT"
	case Continue:
		return "CONTINUE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Result carries the ranked answer and execution statistics.
type Result struct {
	Top              []rank.ScoredDoc
	Accumulators     int
	PagesRead        int
	PagesProcessed   int
	EntriesProcessed int
	// TermsProcessed counts terms whose lists were touched (Quit can
	// skip trailing terms entirely).
	TermsProcessed int
}

// Evaluator runs doc-sorted evaluation through a buffer pool. Build
// the index with postings.BuildDocSorted.
type Evaluator struct {
	Idx *postings.Index
	Buf buffer.Pool
	// TopN is the answer size n.
	TopN int
	// AccumLimit bounds the candidate set for Quit/Continue
	// (ignored by OR). Zero means no limit.
	AccumLimit int
}

// NewEvaluator wires the evaluator.
func NewEvaluator(ix *postings.Index, buf buffer.Pool, topN int) (*Evaluator, error) {
	if ix == nil || buf == nil {
		return nil, fmt.Errorf("docsorted: nil index or buffer pool")
	}
	if topN < 1 {
		return nil, fmt.Errorf("docsorted: topN %d < 1", topN)
	}
	return &Evaluator{Idx: ix, Buf: buf, TopN: topN}, nil
}

// Evaluate runs the query under the strategy. Terms are processed in
// decreasing idf order, as in the classic algorithms.
func (e *Evaluator) Evaluate(strategy Strategy, q eval.Query) (*Result, error) {
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

	res := &Result{}
	acc := make(map[postings.DocID]float64, 256)
	limited := false // Quit/Continue switch has tripped

	for _, qt := range ordered {
		if limited && strategy == Quit {
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
					continue // Continue: no new accumulators
				}
				acc[entry.Doc] = rank.DocWeight(entry.Freq, tm.IDF) * wqt
				if strategy != OR && e.AccumLimit > 0 && len(acc) >= e.AccumLimit {
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
