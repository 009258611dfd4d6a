package main

import (
	"fmt"
	"sync"

	"bufir"
)

// oracle holds the exhaustive answer of every query of the stream,
// indexed by step.id.
type oracle struct {
	top [][]bufir.ScoredDoc
}

// exhaustiveSession opens a private session that evaluates without
// filtering over a pool larger than the index: the reference every
// served answer is held against.
func exhaustiveSession(ix *bufir.Index) (*bufir.Session, error) {
	return ix.NewSession(bufir.SessionConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true, TopN: topN},
		Policy:      bufir.LRU,
		BufferPages: ix.NumPages() + 1,
	})
}

// buildOracle answers every step of the stream exhaustively on ix,
// splitting the pass over numClients sessions.
func buildOracle(ix *bufir.Index, st *stream) (*oracle, error) {
	o := &oracle{top: make([][]bufir.ScoredDoc, st.steps)}
	order := st.passOrder()
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, err := exhaustiveSession(ix)
			if err != nil {
				errs[c] = err
				return
			}
			for i := c; i < len(order); i += numClients {
				res, err := sess.Search(order[i].q)
				if err != nil {
					errs[c] = fmt.Errorf("oracle %s: %w", describeQuery(order[i]), err)
					return
				}
				o.top[order[i].id] = res.Top
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// overlapAtK is the share of want's first k documents that got's
// first k also hold; 1 when want is empty.
func overlapAtK(got, want []bufir.ScoredDoc, k int) float64 {
	if len(want) > k {
		want = want[:k]
	}
	if len(got) > k {
		got = got[:k]
	}
	if len(want) == 0 {
		return 1
	}
	in := make(map[bufir.DocID]bool, len(want))
	for _, sd := range want {
		in[sd.Doc] = true
	}
	hit := 0
	for _, sd := range got {
		if in[sd.Doc] {
			hit++
			delete(in, sd.Doc)
		}
	}
	return float64(hit) / float64(len(want))
}

// identical reports whether two rankings hold the same documents with
// the same float64 scores in the same order.
func identical(a, b []bufir.ScoredDoc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
