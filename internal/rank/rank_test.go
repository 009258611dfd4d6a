package rank

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"bufir/internal/postings"
)

// idf_t (Equation 4) is postings.IDFValue, which the index computes
// every term's idf with.
func TestIDF(t *testing.T) {
	if got := postings.IDFValue(8, 2); math.Abs(got-2) > 1e-12 {
		t.Errorf("postings.IDFValue(8,2) = %g, want 2", got)
	}
	if got := postings.IDFValue(100, 100); got != 0 {
		t.Errorf("postings.IDFValue(100,100) = %g, want 0", got)
	}
	if got := postings.IDFValue(1024, 1); math.Abs(got-10) > 1e-12 {
		t.Errorf("postings.IDFValue(1024,1) = %g, want 10", got)
	}
}

func TestWeightsAndPartialSimilarity(t *testing.T) {
	idf := 3.0
	if got := DocWeight(4, idf); got != 12 {
		t.Errorf("DocWeight = %g", got)
	}
	if got := QueryWeight(5, idf); got != 15 {
		t.Errorf("QueryWeight = %g", got)
	}
	// partial similarity = w_dt * w_qt = f_dt * f_qt * idf^2
	if got := DocWeight(4, idf) * QueryWeight(5, idf); got != 180 {
		t.Errorf("partial similarity w_dt*w_qt = %g, want 180", got)
	}
}

func TestTopNBasic(t *testing.T) {
	acc := map[postings.DocID]float64{0: 10, 1: 30, 2: 20}
	docLen := []float64{1, 1, 1}
	got := TopN(acc, docLen, 2)
	if len(got) != 2 || got[0].Doc != 1 || got[1].Doc != 2 {
		t.Errorf("TopN = %v", got)
	}
}

func TestTopNNormalizesByDocLen(t *testing.T) {
	// Doc 0 has the larger accumulator but a much longer vector.
	acc := map[postings.DocID]float64{0: 100, 1: 60}
	docLen := []float64{10, 2} // scores: 10 vs 30
	got := TopN(acc, docLen, 2)
	if got[0].Doc != 1 || math.Abs(got[0].Score-30) > 1e-12 {
		t.Errorf("TopN normalization wrong: %v", got)
	}
}

func TestTopNTieBreaksByDocID(t *testing.T) {
	acc := map[postings.DocID]float64{3: 5, 1: 5, 2: 5}
	docLen := []float64{1, 1, 1, 1}
	got := TopN(acc, docLen, 2)
	if got[0].Doc != 1 || got[1].Doc != 2 {
		t.Errorf("tie-break wrong: %v", got)
	}
}

func TestTopNSkipsZeroLengthDocs(t *testing.T) {
	acc := map[postings.DocID]float64{0: 5, 1: 5}
	docLen := []float64{0, 1}
	got := TopN(acc, docLen, 5)
	if len(got) != 1 || got[0].Doc != 1 {
		t.Errorf("zero-length doc not skipped: %v", got)
	}
}

func TestTopNEdgeCases(t *testing.T) {
	if got := TopN(nil, nil, 5); got != nil {
		t.Errorf("empty acc: %v", got)
	}
	acc := map[postings.DocID]float64{0: 1}
	for _, n := range []int{0, -3} {
		if got := TopN(acc, []float64{1}, n); got != nil {
			t.Errorf("n=%d: %v", n, got)
		}
	}
	if got := TopN(acc, []float64{1}, 10); len(got) != 1 {
		t.Errorf("n beyond size: %v", got)
	}
	// The heap is sized by the accumulators, not by n: math.MaxInt
	// must neither overflow the capacity nor allocate for it.
	acc[1] = 2
	if got := TopN(acc, []float64{1, 1}, math.MaxInt); len(got) != 2 || got[0].Doc != 1 {
		t.Errorf("n = math.MaxInt: %v", got)
	}
	// TopN's heap itself: k = math.MaxInt keeps every offer.
	var top TopK
	top.Reset(math.MaxInt, len(acc))
	for d, a := range acc {
		top.Offer(ScoredDoc{Doc: d, Score: a})
	}
	if got := top.Ranked(); len(got) != 2 {
		t.Errorf("k = math.MaxInt: ranked %v", got)
	}
}

// TestTopNMatchesFullSort: against random inputs, the heap-based
// selection must agree with sorting everything, and so must one heap
// Reset and reused across the inputs.
func TestTopNMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var reused TopK
	for iter := 0; iter < 200; iter++ {
		numDocs := 1 + r.Intn(200)
		docLen := make([]float64, numDocs)
		for i := range docLen {
			docLen[i] = 0.5 + r.Float64()*9
		}
		acc := make(map[postings.DocID]float64)
		for i := 0; i < r.Intn(numDocs+1); i++ {
			acc[postings.DocID(r.Intn(numDocs))] = r.Float64() * 100
		}
		n := 1 + r.Intn(20)
		got := TopN(acc, docLen, n)
		reused.Reset(n, len(acc))
		for d, a := range acc {
			reused.Offer(ScoredDoc{Doc: d, Score: a / docLen[d]})
		}
		if again := reused.Ranked(); !slices.Equal(again, got) {
			t.Fatalf("iter %d: the reused heap ranked %v, TopN %v", iter, again, got)
		}

		want := make([]ScoredDoc, 0, len(acc))
		for d, a := range acc {
			want = append(want, ScoredDoc{Doc: d, Score: a / docLen[d]})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].Doc < want[j].Doc
		})
		if n < len(want) {
			want = want[:n]
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: len %d, want %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("iter %d pos %d: got %v, want %v", iter, i, got[i], want[i])
			}
		}
	}
}

// TestTopNQuickOrdering: results are always sorted by (score desc,
// doc asc) and within [0, n].
func TestTopNQuickOrdering(t *testing.T) {
	prop := func(scores []float64, n uint8) bool {
		acc := make(map[postings.DocID]float64)
		docLen := make([]float64, len(scores))
		for i, s := range scores {
			acc[postings.DocID(i)] = math.Abs(s)
			docLen[i] = 1
		}
		k := int(n%20) + 1
		got := TopN(acc, docLen, k)
		if len(got) > k {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Score > got[i-1].Score {
				return false
			}
			if got[i].Score == got[i-1].Score && got[i].Doc < got[i-1].Doc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIDFGuardedEdges(t *testing.T) {
	// df == 0: a term absent from the collection (reachable through
	// loaded shard metadata) must contribute nothing, not +Inf.
	if got := postings.IDFValue(100, 0); got != 0 {
		t.Errorf("postings.IDFValue(100,0) = %g, want 0", got)
	}
	if got := postings.IDFValue(100, -3); got != 0 {
		t.Errorf("postings.IDFValue(100,-3) = %g, want 0", got)
	}
	// df == numDocs: zero by Equation 4, and documented as such.
	if got := postings.IDFValue(40000, 40000); got != 0 {
		t.Errorf("IDF(N,N) = %g, want 0", got)
	}
	// df > numDocs (corrupt metadata): clamped to 0, never negative.
	if got := postings.IDFValue(10, 25); got != 0 {
		t.Errorf("postings.IDFValue(10,25) = %g, want 0", got)
	}
	// The guard must keep downstream weights finite: these are the
	// expressions a query with a degenerate term runs through.
	for _, df := range []int{0, 100} {
		idf := postings.IDFValue(100, df)
		if w := QueryWeight(3, idf); math.IsInf(w, 0) || math.IsNaN(w) {
			t.Errorf("QueryWeight with df=%d = %g", df, w)
		}
		if w := DocWeight(0, idf); math.IsNaN(w) {
			t.Errorf("DocWeight(0, idf(df=%d)) = %g", df, w)
		}
	}
}

func TestOverlapAtKDuplicateDocIDs(t *testing.T) {
	want := []ScoredDoc{{Doc: 1, Score: 3}, {Doc: 2, Score: 2}, {Doc: 3, Score: 1}}
	// A degraded merge can legally hold duplicate DocIDs. The
	// historical per-entry count scored this 4/3 > 1.
	got := []ScoredDoc{{Doc: 1, Score: 3}, {Doc: 1, Score: 3}, {Doc: 2, Score: 2}, {Doc: 2, Score: 2}}
	if ov := OverlapAtK(got, want, 20); ov != 2.0/3.0 {
		t.Errorf("overlap with duplicate got = %g, want 2/3", ov)
	}
	// Duplicates in the reference must not inflate the denominator.
	dupWant := []ScoredDoc{{Doc: 1, Score: 3}, {Doc: 1, Score: 3}, {Doc: 2, Score: 2}}
	if ov := OverlapAtK([]ScoredDoc{{Doc: 1, Score: 3}, {Doc: 2, Score: 2}}, dupWant, 20); ov != 1 {
		t.Errorf("overlap with duplicate want = %g, want 1", ov)
	}
	// The metric can never exceed 1, whatever the inputs.
	if ov := OverlapAtK(got, want, 2); ov > 1 {
		t.Errorf("overlap = %g > 1", ov)
	}
}

func TestOverlapAtKBasics(t *testing.T) {
	a := []ScoredDoc{{Doc: 1}, {Doc: 2}, {Doc: 3}}
	b := []ScoredDoc{{Doc: 3}, {Doc: 4}, {Doc: 5}}
	if ov := OverlapAtK(a, b, 3); ov != 1.0/3.0 {
		t.Errorf("overlap = %g, want 1/3", ov)
	}
	if ov := OverlapAtK(a, nil, 20); ov != 1 {
		t.Errorf("empty reference overlap = %g, want 1", ov)
	}
	if ov := OverlapAtK(nil, b, 20); ov != 0 {
		t.Errorf("empty got overlap = %g, want 0", ov)
	}
	// k truncates both sides before comparing.
	if ov := OverlapAtK(a, b, 1); ov != 0 {
		t.Errorf("overlap@1 = %g, want 0 (heads differ)", ov)
	}
	// k <= 0 compares whole rankings.
	if ov := OverlapAtK(a, a, 0); ov != 1 {
		t.Errorf("overlap@0 (untruncated) = %g, want 1", ov)
	}
}

func TestBeforeMatchesTopNOrder(t *testing.T) {
	// Before must be the exact complement view of the heap predicate:
	// sorting with it reproduces TopN's output order.
	acc := map[postings.DocID]float64{}
	docLen := make([]float64, 50)
	rng := rand.New(rand.NewSource(7))
	var all []ScoredDoc
	for d := 0; d < 50; d++ {
		docLen[d] = 1
		score := float64(rng.Intn(5)) // force score ties
		acc[postings.DocID(d)] = score
		all = append(all, ScoredDoc{Doc: postings.DocID(d), Score: score})
	}
	SortDesc(all)
	got := TopN(acc, docLen, len(all))
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("position %d: TopN %v != SortDesc %v", i, got[i], all[i])
		}
	}
	for i := 1; i < len(all); i++ {
		if Before(all[i], all[i-1]) {
			t.Fatalf("SortDesc violates Before at %d", i)
		}
	}
}
