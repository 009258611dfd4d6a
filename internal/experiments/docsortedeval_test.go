package experiments

import (
	"math"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/eval"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

// toyLists are three terms over 10 docs, the fixture of the
// doc-sorted and boolean evaluator tests:
//
//	alpha: 0 1 2 3 4 5
//	beta:  1 6 7
//	gamma: 0
func toyLists() []postings.TermPostings {
	return []postings.TermPostings{
		{Name: "alpha", Entries: []postings.Entry{
			{Doc: 0, Freq: 9}, {Doc: 1, Freq: 6}, {Doc: 2, Freq: 4},
			{Doc: 3, Freq: 2}, {Doc: 4, Freq: 1}, {Doc: 5, Freq: 1},
		}},
		{Name: "beta", Entries: []postings.Entry{
			{Doc: 1, Freq: 5}, {Doc: 6, Freq: 3}, {Doc: 7, Freq: 1},
		}},
		{Name: "gamma", Entries: []postings.Entry{{Doc: 0, Freq: 2}}},
	}
}

func newDocSortedEval(t *testing.T, topN int) (*docSortedEvaluator, *postings.Index) {
	t.Helper()
	ix, pages, err := buildDocSorted(toyLists(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewStore(pages)
	mgr, err := buffer.NewManager(64, 1, st, ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	ev, err := newDocSortedEvaluator(ix, mgr, topN)
	if err != nil {
		t.Fatal(err)
	}
	return ev, ix
}

func TestBuildDocSortedOrder(t *testing.T) {
	ix, pages, err := buildDocSorted(toyLists(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tid := range ix.Terms {
		entries := postings.ListPostings(pages, ix, postings.TermID(tid))
		for i := 1; i < len(entries); i++ {
			if entries[i].Doc <= entries[i-1].Doc {
				t.Fatalf("term %d not doc-sorted at %d", tid, i)
			}
		}
	}
	// Same W_d and idf as the frequency-sorted build.
	fix, _, err := postings.Build(toyLists(), 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d := range ix.DocLen {
		if math.Abs(ix.DocLen[d]-fix.DocLen[d]) > 1e-12 {
			t.Fatalf("W_%d differs between layouts", d)
		}
	}
	// The page maxima still fall along every list, as RebuildPageMaps
	// demands of every index.
	if err := ix.RebuildPageMaps(); err != nil {
		t.Fatalf("doc-sorted index rejected on rebuild: %v", err)
	}
}

func TestORMatchesFrequencySortedExhaustive(t *testing.T) {
	ev, ix := newDocSortedEval(t, 10)
	q := eval.Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}}
	res, err := ev.Evaluate(strategyOR, q)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive scores are layout-independent: compare with a direct
	// computation.
	acc := map[postings.DocID]float64{}
	for _, qt := range q {
		tm := ix.Terms[qt.Term]
		for _, e := range toyLists()[qt.Term].Entries {
			acc[e.Doc] += rank.DocWeight(e.Freq, tm.IDF) * rank.QueryWeight(qt.Fqt, tm.IDF)
		}
	}
	want := rank.TopN(acc, ix.DocLen, 10)
	if len(res.Top) != len(want) {
		t.Fatalf("%d results, want %d", len(res.Top), len(want))
	}
	for i := range want {
		if res.Top[i].Doc != want[i].Doc || math.Abs(res.Top[i].Score-want[i].Score) > 1e-9 {
			t.Errorf("pos %d: %v != %v", i, res.Top[i], want[i])
		}
	}
	if res.PagesRead != ix.NumPagesTotal {
		t.Errorf("strategyOR read %d pages, want all %d", res.PagesRead, ix.NumPagesTotal)
	}
}

func TestQuitStopsProcessingTerms(t *testing.T) {
	ev, _ := newDocSortedEval(t, 10)
	ev.AccumLimit = 1
	// idf order: gamma (1 doc), beta (3), alpha (6). gamma's single
	// entry fills the accumulator budget; strategyQuit must not process beta
	// or alpha at all.
	res, err := ev.Evaluate(strategyQuit, eval.Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TermsProcessed != 1 {
		t.Errorf("strategyQuit processed %d terms, want 1", res.TermsProcessed)
	}
	if res.Accumulators != 1 {
		t.Errorf("accumulators = %d, want 1", res.Accumulators)
	}
}

func TestContinueKeepsUpdatingButReadsEverything(t *testing.T) {
	ev, ix := newDocSortedEval(t, 10)
	ev.AccumLimit = 1
	res, err := ev.Evaluate(strategyContinue, eval.Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.TermsProcessed != 3 {
		t.Errorf("strategyContinue processed %d terms, want 3", res.TermsProcessed)
	}
	if res.Accumulators != 1 {
		t.Errorf("accumulators = %d, want 1", res.Accumulators)
	}
	// strategyContinue saves memory but not I/O — the Moffat-Zobel point.
	if res.PagesRead != ix.NumPagesTotal {
		t.Errorf("strategyContinue read %d pages, want all %d", res.PagesRead, ix.NumPagesTotal)
	}
	// Doc 0 (gamma + alpha) keeps accumulating across terms.
	if len(res.Top) != 1 || res.Top[0].Doc != 0 {
		t.Fatalf("top = %v", res.Top)
	}
	wantScore := (rank.PartialSimilarity(2, 1, ix.IDF(2)) + rank.PartialSimilarity(9, 1, ix.IDF(0))) / ix.DocLen[0]
	if math.Abs(res.Top[0].Score-wantScore) > 1e-9 {
		t.Errorf("score %g, want %g", res.Top[0].Score, wantScore)
	}
}

func TestDocSortedValidation(t *testing.T) {
	ev, _ := newDocSortedEval(t, 5)
	if _, err := ev.Evaluate(strategyOR, nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := ev.Evaluate(strategyOR, eval.Query{{Term: 99, Fqt: 1}}); err == nil {
		t.Error("bad term accepted")
	}
	if _, err := ev.Evaluate(strategyOR, eval.Query{{Term: 0, Fqt: 0}}); err == nil {
		t.Error("zero fqt accepted")
	}
	ix, pages, _ := buildDocSorted(toyLists(), 10, 2)
	st := storage.NewStore(pages)
	mgr, _ := buffer.NewManager(4, 1, st, ix, func(int) buffer.Policy { return buffer.NewLRU() })
	if _, err := newDocSortedEvaluator(nil, mgr, 5); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := newDocSortedEvaluator(ix, mgr, 0); err == nil {
		t.Error("topN 0 accepted")
	}
}

func TestDocSortedStrategyString(t *testing.T) {
	if strategyOR.String() != "OR" || strategyQuit.String() != "QUIT" || strategyContinue.String() != "CONTINUE" {
		t.Error("strategy names wrong")
	}
	if docSortedStrategy(7).String() == "" {
		t.Error("unknown strategy should format")
	}
}
