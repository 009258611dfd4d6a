// Package rank implements the cosine-similarity ranking model of §2.2:
// term weights w_{d,t} = f_{d,t}·idf_t (Equation 3) over the idf_t of
// Equation 4 (postings.IDFValue), and selection of the n highest-scoring
// documents by score normalized by the vector length W_d (Equation 2).
package rank

import (
	"slices"

	"bufir/internal/postings"
)

// DocWeight computes w_{d,t} = f_{d,t} · idf_t.
func DocWeight(fdt int32, idf float64) float64 {
	return float64(fdt) * idf
}

// QueryWeight computes w_{q,t} = f_{q,t} · idf_t. (Terms may have
// frequencies above one in queries, e.g. due to relevance feedback.)
func QueryWeight(fqt int, idf float64) float64 {
	return float64(fqt) * idf
}

// ScoredDoc is a document with its final (normalized) relevance score.
type ScoredDoc struct {
	Doc   postings.DocID
	Score float64
}

// TopN returns the n highest-scoring documents among the accumulators,
// normalizing each accumulator by the document's vector length W_d
// (Figure 1, steps 5–6). Results are ordered by score descending, with
// DocID ascending as a deterministic tie-break. Documents with
// zero-length vectors are skipped (they cannot have accumulators in a
// well-formed index, but the guard keeps the function total).
func TopN(acc map[postings.DocID]float64, docLen []float64, n int) []ScoredDoc {
	if n <= 0 || len(acc) == 0 {
		return nil
	}
	var top TopK
	top.Reset(n, len(acc))
	for d, a := range acc {
		if wd := docLen[d]; wd > 0 {
			top.Offer(ScoredDoc{Doc: d, Score: a / wd})
		}
	}
	return top.Ranked()
}

// Before reports whether a ranks strictly ahead of b in result order:
// higher score first, lower DocID first among equal scores. Every
// ranking produced in the system — TopK selection and the router's
// cross-shard merge — total-orders ties with it. Two rankings of the
// same documents can differ only if they use different predicates; this
// is the only one.
func Before(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// SortDesc sorts docs into result order (Before: score descending,
// DocID ascending among ties) in place. Merging per-shard rankings
// with SortDesc and truncating is bit-identical to a single-index
// TopN over the union whenever per-doc scores agree.
func SortDesc(docs []ScoredDoc) {
	slices.SortFunc(docs, func(a, b ScoredDoc) int {
		if Before(a, b) {
			return -1
		}
		if Before(b, a) {
			return 1
		}
		return 0
	})
}

// OverlapAtK is the judgment-free overlap metric of Clarke, Culpepper
// & Moffat: |top-k(got) ∩ top-k(want)| / |top-k(want)|, over DISTINCT
// documents. Duplicate DocIDs — which a degraded or partial merge can
// legally contain — count once, so the metric can never exceed 1; the
// historical per-entry count let a ranking with dupes score above
// perfect. An empty reference yields 1 (there was nothing to miss).
// E23 (fault sweeps), E26 (deadline sweeps) and E27 (rank-safe
// frontier) all measure through this one implementation.
func OverlapAtK(got, want []ScoredDoc, k int) float64 {
	if k > 0 {
		if len(want) > k {
			want = want[:k]
		}
		if len(got) > k {
			got = got[:k]
		}
	}
	wantSet := make(map[postings.DocID]bool, len(want))
	for _, sd := range want {
		wantSet[sd.Doc] = true
	}
	if len(wantSet) == 0 {
		return 1
	}
	hit := 0
	for _, sd := range got {
		if wantSet[sd.Doc] {
			hit++
			delete(wantSet, sd.Doc) // a duplicate hit counts once
		}
	}
	return float64(hit) / float64(hit+len(wantSet))
}

// TopK is a min-heap of at most k scored documents under Before: the
// root is the weakest kept. It is the one bounded selection of the
// system — TopN's, and the evaluator's over its accumulators.
type TopK struct {
	k int
	h []ScoredDoc
}

// Reset empties the heap to keep the k best (k >= 1) of at most hint
// offers to come, reusing its storage; the hint only sizes it. The zero
// TopK is ready for Reset.
func (t *TopK) Reset(k, hint int) {
	t.k, t.h = k, slices.Grow(t.h[:0], min(k, hint))
}

// Offer keeps sd if it ranks among the k best offered so far.
func (t *TopK) Offer(sd ScoredDoc) {
	if len(t.h) < t.k {
		t.h = append(t.h, sd)
		t.up(len(t.h) - 1)
	} else if Before(sd, t.h[0]) {
		t.h[0] = sd
		t.down(0)
	}
}

// Ranked returns the kept documents in result order, leaving the heap
// intact.
func (t *TopK) Ranked() []ScoredDoc {
	out := append([]ScoredDoc{}, t.h...)
	SortDesc(out)
	return out
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Before(t.h[parent], t.h[i]) {
			break
		}
		t.h[parent], t.h[i] = t.h[i], t.h[parent]
		i = parent
	}
}

func (t *TopK) down(i int) {
	for {
		weakest := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(t.h); c++ {
			if Before(t.h[weakest], t.h[c]) {
				weakest = c
			}
		}
		if weakest == i {
			return
		}
		t.h[i], t.h[weakest] = t.h[weakest], t.h[i]
		i = weakest
	}
}
