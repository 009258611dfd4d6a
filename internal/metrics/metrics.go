// Package metrics measures the system: the retrieval-effectiveness
// measures of §2.2 and §4.1 (precision and the non-interpolated
// average precision the paper, and TREC, uses as its single-number
// effectiveness metric), the §2.4 cost model, the serving counters,
// and the observability layer (latency histograms, engine and buffer
// snapshots, and the hook behind the optional HTTP endpoint).
package metrics

import (
	"math"

	"bufir/internal/postings"
	"bufir/internal/rank"
)

// RelevanceSet is the set of documents judged relevant to a topic.
type RelevanceSet map[postings.DocID]bool

// NewRelevanceSet builds a RelevanceSet from a document list.
func NewRelevanceSet(docs []postings.DocID) RelevanceSet {
	s := make(RelevanceSet, len(docs))
	for _, d := range docs {
		s[d] = true
	}
	return s
}

// PrecisionAtK returns the fraction of the first k ranked documents
// that are relevant. k is clamped to the result length; k <= 0 yields 0.
func PrecisionAtK(ranked []rank.ScoredDoc, rel RelevanceSet, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for i := 0; i < k; i++ {
		if rel[ranked[i].Doc] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// AveragePrecision computes the non-interpolated average precision of
// a ranked result list against the relevance set: the mean, over all
// relevant documents in the collection, of the precision at each
// relevant document's rank (0 for relevant documents not retrieved).
// This is the TREC measure the paper reports (footnote 10). A relevant
// document is credited only at its first (best) rank; later duplicate
// occurrences neither add credit nor inflate the hit count, matching
// trec_eval's treatment of duplicate-bearing runs.
func AveragePrecision(ranked []rank.ScoredDoc, rel RelevanceSet) float64 {
	if len(rel) == 0 {
		return 0
	}
	seen := make(map[postings.DocID]bool, len(ranked))
	sum := 0.0
	hits := 0
	for i, sd := range ranked {
		if rel[sd.Doc] && !seen[sd.Doc] {
			seen[sd.Doc] = true
			hits++
			sum += float64(hits) / float64(i+1)
		}
	}
	return sum / float64(len(rel))
}

// RelativeDifference returns |a-b| / max(|a|,|b|), the relative
// effectiveness difference used in §5.2 ("within 5% of DF in over 90%
// of all runs"). Two zeros compare as identical (0).
func RelativeDifference(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// SavingsPercent returns 100·(base−x)/base: the paper's "savings in
// disk reads" metric (Figure 3 y-axis). A zero base yields 0.
func SavingsPercent(base, x int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-x) / float64(base)
}
