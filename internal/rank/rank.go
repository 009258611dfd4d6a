// Package rank implements the cosine-similarity ranking model of §2.2:
// term weights w_{d,t} = f_{d,t}·idf_t (Equation 3), idf_t =
// log2(N/f_t) (Equation 4), document vector lengths W_d (Equation 2),
// and selection of the n highest-scoring documents.
package rank

import (
	"container/heap"
	"sort"

	"bufir/internal/postings"
)

// IDF computes idf_t = log2(N / f_t), guarded at both degenerate
// edges: f_t <= 0 (a term absent from the collection — reachable
// through loaded shard metadata, where a term may carry a global df
// with no local postings) and f_t >= N (a term in every document)
// both yield 0, so an uninformative term contributes nothing instead
// of injecting ±Inf into query weights. IDF delegates to
// postings.IDFValue, the single audited implementation shared with
// index construction and the index-file loaders; see its comment for
// the rationale at each edge.
func IDF(numDocs, df int) float64 {
	return postings.IDFValue(numDocs, df)
}

// DocWeight computes w_{d,t} = f_{d,t} · idf_t.
func DocWeight(fdt int32, idf float64) float64 {
	return float64(fdt) * idf
}

// QueryWeight computes w_{q,t} = f_{q,t} · idf_t. (Terms may have
// frequencies above one in queries, e.g. due to relevance feedback.)
func QueryWeight(fqt int, idf float64) float64 {
	return float64(fqt) * idf
}

// PartialSimilarity is the product w_{d,t}·w_{q,t} = f_{d,t}·f_{q,t}·idf_t²,
// the amount a single (d, f_dt) entry adds to document d's accumulator.
func PartialSimilarity(fdt int32, fqt int, idf float64) float64 {
	return float64(fdt) * float64(fqt) * idf * idf
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
	h := make(topHeap, 0, min(n, len(acc))+1)
	for d, a := range acc {
		wd := docLen[d]
		if wd <= 0 {
			continue
		}
		sd := ScoredDoc{Doc: d, Score: a / wd}
		if len(h) < n {
			heap.Push(&h, sd)
			continue
		}
		if lessScored(h[0], sd) {
			h[0] = sd
			heap.Fix(&h, 0)
		}
	}
	// Drain the min-heap into descending order.
	out := make([]ScoredDoc, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(ScoredDoc)
	}
	return out
}

// lessScored orders a strictly below b: lower score first, higher
// DocID first among equal scores (so that the heap keeps the
// best-scoring, lowest-DocID documents).
func lessScored(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// Before reports whether a ranks strictly ahead of b in result order:
// higher score first, lower DocID first among equal scores. It is the
// exact complement view of the lessScored predicate TopN's heap uses,
// exported so every ranking produced in the system — TopN selection,
// the router's cross-shard merge, rank-safe termination comparisons —
// totals-orders ties identically. Two rankings of the same documents
// can differ only if they use different predicates; this is the only
// one.
func Before(a, b ScoredDoc) bool {
	return lessScored(b, a)
}

// SortDesc sorts docs into result order (Before: score descending,
// DocID ascending among ties) in place. Merging per-shard rankings
// with SortDesc and truncating is bit-identical to a single-index
// TopN over the union whenever per-doc scores agree.
func SortDesc(docs []ScoredDoc) {
	sort.Slice(docs, func(i, j int) bool { return Before(docs[i], docs[j]) })
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

// topHeap is a min-heap of ScoredDocs: the root is the weakest kept
// result, so a stronger candidate replaces it in O(log n).
type topHeap []ScoredDoc

func (h topHeap) Len() int           { return len(h) }
func (h topHeap) Less(i, j int) bool { return lessScored(h[i], h[j]) }
func (h topHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topHeap) Push(x any)        { *h = append(*h, x.(ScoredDoc)) }
func (h *topHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
