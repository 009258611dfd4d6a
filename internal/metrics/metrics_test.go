package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"bufir/internal/postings"
	"bufir/internal/rank"
)

func ranked(docs ...postings.DocID) []rank.ScoredDoc {
	out := make([]rank.ScoredDoc, len(docs))
	for i, d := range docs {
		out[i] = rank.ScoredDoc{Doc: d, Score: float64(len(docs) - i)}
	}
	return out
}

func TestPrecisionAtK(t *testing.T) {
	rel := NewRelevanceSet([]postings.DocID{1, 3})
	rs := ranked(1, 2, 3, 4)
	if got := PrecisionAtK(rs, rel, 1); got != 1 {
		t.Errorf("P@1 = %g", got)
	}
	if got := PrecisionAtK(rs, rel, 2); got != 0.5 {
		t.Errorf("P@2 = %g", got)
	}
	if got := PrecisionAtK(rs, rel, 4); got != 0.5 {
		t.Errorf("P@4 = %g", got)
	}
	if got := PrecisionAtK(rs, rel, 10); got != 0.5 {
		t.Errorf("P@10 (clamped) = %g", got)
	}
	if got := PrecisionAtK(rs, rel, 0); got != 0 {
		t.Errorf("P@0 = %g", got)
	}
	if got := PrecisionAtK(nil, rel, 3); got != 0 {
		t.Errorf("P@k empty = %g", got)
	}
}

func TestAveragePrecision(t *testing.T) {
	rel := NewRelevanceSet([]postings.DocID{1, 3})
	// Ranked: 1 (rel, P=1/1), 2, 3 (rel, P=2/3) -> AP = (1 + 2/3)/2
	got := AveragePrecision(ranked(1, 2, 3), rel)
	want := (1.0 + 2.0/3) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AP = %g, want %g", got, want)
	}
	// Missing relevant documents count as zero precision.
	got = AveragePrecision(ranked(1), rel)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AP with missing rel = %g, want 0.5", got)
	}
	// Perfect ranking gives AP 1.
	if got := AveragePrecision(ranked(1, 3), rel); got != 1 {
		t.Errorf("perfect AP = %g", got)
	}
	// No relevant docs retrieved gives 0.
	if got := AveragePrecision(ranked(5, 6), rel); got != 0 {
		t.Errorf("zero AP = %g", got)
	}
	if got := AveragePrecision(ranked(1, 3), RelevanceSet{}); got != 0 {
		t.Errorf("AP empty rel = %g", got)
	}
}

// TestAveragePrecisionDuplicates: duplicate occurrences of a relevant
// document earn credit only at the first rank; repeats neither add
// precision terms nor inflate the running hit count.
func TestAveragePrecisionDuplicates(t *testing.T) {
	rel := NewRelevanceSet([]postings.DocID{1, 3})
	// Ranked: 1 (rel, P=1/1), 1 (dup, skipped), 3 (rel, P=2/3).
	got := AveragePrecision(ranked(1, 1, 3), rel)
	want := (1.0 + 2.0/3) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AP with duplicate = %g, want %g", got, want)
	}
	// All-duplicate ranking of one relevant doc: same AP as listing it
	// once. Before the fix the dup inflated hits, pushing AP above 1.
	if got := AveragePrecision(ranked(1, 1, 1), NewRelevanceSet([]postings.DocID{1})); got != 1 {
		t.Errorf("AP all-duplicates = %g, want 1", got)
	}
	prop := func(order []uint8, relRaw []uint8) bool {
		rs := make([]rank.ScoredDoc, len(order))
		for i, d := range order {
			rs[i] = rank.ScoredDoc{Doc: postings.DocID(d % 10)}
		}
		var relDocs []postings.DocID
		for _, d := range relRaw {
			relDocs = append(relDocs, postings.DocID(d%10))
		}
		ap := AveragePrecision(rs, NewRelevanceSet(relDocs))
		return ap >= 0 && ap <= 1+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAveragePrecisionBounds: AP always lies in [0, 1].
func TestAveragePrecisionBounds(t *testing.T) {
	prop := func(order []uint8, relRaw []uint8) bool {
		var rs []rank.ScoredDoc
		seen := map[postings.DocID]bool{}
		for _, d := range order {
			id := postings.DocID(d % 50)
			if !seen[id] {
				seen[id] = true
				rs = append(rs, rank.ScoredDoc{Doc: id})
			}
		}
		var rel []postings.DocID
		for _, d := range relRaw {
			rel = append(rel, postings.DocID(d%50))
		}
		ap := AveragePrecision(rs, NewRelevanceSet(rel))
		return ap >= 0 && ap <= 1+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAPRewardsEarlierRelevant: moving a relevant document earlier in
// the ranking never decreases AP.
func TestAPRewardsEarlierRelevant(t *testing.T) {
	rel := NewRelevanceSet([]postings.DocID{7})
	prev := -1.0
	for pos := 9; pos >= 0; pos-- {
		docs := make([]postings.DocID, 10)
		next := postings.DocID(100)
		for i := range docs {
			if i == pos {
				docs[i] = 7
			} else {
				docs[i] = next
				next++
			}
		}
		ap := AveragePrecision(ranked(docs...), rel)
		if ap < prev {
			t.Fatalf("AP decreased when relevant doc moved from %d to %d", pos+1, pos)
		}
		prev = ap
	}
}

func TestRelativeDifference(t *testing.T) {
	if got := RelativeDifference(0, 0); got != 0 {
		t.Errorf("RelDiff(0,0) = %g", got)
	}
	if got := RelativeDifference(10, 9.5); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelDiff(10,9.5) = %g", got)
	}
	if got := RelativeDifference(9.5, 10); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("RelDiff symmetric = %g", got)
	}
	if got := RelativeDifference(0, 5); got != 1 {
		t.Errorf("RelDiff(0,5) = %g", got)
	}
}

func TestSavingsPercent(t *testing.T) {
	if got := SavingsPercent(100, 25); got != 75 {
		t.Errorf("SavingsPercent = %g", got)
	}
	if got := SavingsPercent(0, 5); got != 0 {
		t.Errorf("SavingsPercent(0,·) = %g", got)
	}
	if got := SavingsPercent(100, 150); got != -50 {
		t.Errorf("negative savings = %g", got)
	}
}
