package bufir

import (
	"context"
	"math"
	"testing"

	"bufir/internal/postings"
)

var safeMethods = []struct {
	name string
	algo Algorithm
}{{"MAXSCORE", Maxscore}}

// customIndex builds an index over hand-written postings lists (the
// synthetic-collection plumbing without its randomness).
func customIndex(t testing.TB, lists []postings.TermPostings, numDocs, pageSize int) *Index {
	t.Helper()
	cfg := TinyCollectionConfig(1)
	cfg.PageSize = pageSize
	ix, err := NewIndex(&Collection{Cfg: cfg, NumDocs: numDocs, Lists: lists})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func searchTop(t *testing.T, ix *Index, algo Algorithm, topN int, q Query) []ScoredDoc {
	t.Helper()
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: algo, Unfiltered: true, TopN: topN}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Top
}

func assertSameRanking(t *testing.T, label string, got, want []ScoredDoc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s pos %d: got %+v, want %+v (bit-identical)", label, i, got[i], want[i])
		}
	}
}

// TestSessionSafeMethodsBitIdentical: through the public Session API —
// including the Algorithm knob — the exact method answers every topic
// exactly like an exhaustive DF session.
func TestSessionSafeMethodsBitIdentical(t *testing.T) {
	col, ix := testIndex(t)
	for _, topic := range col.Topics {
		q, err := ix.TopicQuery(topic)
		if err != nil {
			t.Fatal(err)
		}
		want := searchTop(t, ix, DF, 20, q)
		for _, m := range safeMethods {
			got := searchTop(t, ix, m.algo, 20, q)
			assertSameRanking(t, m.name, got, want)
		}
	}
}

// TestEngineSafeMethod: the concurrent engine with the exact method
// stays exact over a growing refinement, the second step running on
// the pool the first left warm.
func TestEngineSafeMethod(t *testing.T) {
	col, ix := testIndex(t)
	eng, err := ix.NewEngine(EngineConfig{
		EvalOptions: EvalOptions{Algorithm: Maxscore, TopN: 10},
		Workers:     2, BufferPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []Query{q[:1], q} { // a growing refinement
		want := searchTop(t, ix, DF, 10, sub)
		res, err := eng.SearchContext(context.Background(), 0, sub)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, "engine MAXSCORE", res.Top, want)
	}
}

// TestRouterSafeMethodsMatchSingleIndex: exact merges are pure top-n —
// per-doc scores are bit-identical across shards because partitions
// carry the global statistics — so a sharded exact deployment equals a
// single-index exhaustive answer document for document, bit for bit.
func TestRouterSafeMethodsMatchSingleIndex(t *testing.T) {
	col, ix := testIndex(t)
	const topN = 10
	for _, m := range safeMethods {
		parts, err := ix.Shard(3)
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]Searcher, len(parts))
		for i, p := range parts {
			eng, err := p.NewEngine(EngineConfig{
				EvalOptions: EvalOptions{Algorithm: m.algo, TopN: topN},
				BufferPages: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = eng
		}
		router, err := NewRouter(backends, RouterConfig{TopN: topN})
		if err != nil {
			t.Fatal(err)
		}
		for ti, topic := range col.Topics {
			q, err := ix.TopicQuery(topic)
			if err != nil {
				t.Fatal(err)
			}
			want := searchTop(t, ix, DF, topN, q)
			got, err := router.SearchContext(context.Background(), 0, q)
			if err != nil {
				t.Fatalf("%s topic %d: %v", m.name, ti, err)
			}
			assertSameRanking(t, m.name, got.Top, want)
		}
		if err := router.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterCrossShardEqualScoreTieBreak is the satellite-3 regression
// test: documents with exactly equal scores living on different shards
// must merge in rank.TopN's tie order (DocID ascending), identical to
// the single-index answer. A merge predicate diverging from TopN's by
// even the tie direction fails this immediately.
func TestRouterCrossShardEqualScoreTieBreak(t *testing.T) {
	// Twelve documents with identical one-entry postings in "tied"
	// (idf > 0 because half the collection lacks the term): every
	// score is the same float64, so ranking is decided purely by the
	// tie-break.
	tied := postings.TermPostings{Name: "tied"}
	for d := DocID(0); d < 12; d++ {
		tied.Entries = append(tied.Entries, Entry{Doc: d, Freq: 1})
	}
	ix := customIndex(t, []postings.TermPostings{tied}, 24, 2)
	id, ok := ix.LookupTerm("tied")
	if !ok {
		t.Fatal("term not indexed")
	}
	q := Query{{Term: id, Fqt: 1}}
	const topN = 6

	want := searchTop(t, ix, DF, topN, q)
	if len(want) != topN {
		t.Fatalf("single-index answer has %d docs", len(want))
	}
	for i, sd := range want {
		if sd.Doc != DocID(i) {
			t.Fatalf("single-index tie order broken: pos %d is doc %d", i, sd.Doc)
		}
	}

	for _, shards := range []int{2, 3, 4} {
		parts, err := ix.Shard(shards)
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]Searcher, len(parts))
		for i, p := range parts {
			eng, err := p.NewEngine(EngineConfig{
				EvalOptions: EvalOptions{Algorithm: DF, Unfiltered: true, TopN: topN},
				BufferPages: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			backends[i] = eng
		}
		router, err := NewRouter(backends, RouterConfig{TopN: topN})
		if err != nil {
			t.Fatal(err)
		}
		got, err := router.SearchContext(context.Background(), 0, q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, "merged ties", got.Top, want)
		if err := router.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSearchIDFEdgeUbiquitousTerm is half of satellite 2 end-to-end: a
// term in every document (df == N) has idf 0 by the guarded
// definition, so adding it to a query changes nothing — same answer,
// finite scores, no NaN poisoning — on every method.
func TestSearchIDFEdgeUbiquitousTerm(t *testing.T) {
	ubiq := postings.TermPostings{Name: "ubiq"}
	rare := postings.TermPostings{Name: "rare"}
	for d := DocID(0); d < 24; d++ {
		ubiq.Entries = append(ubiq.Entries, Entry{Doc: d, Freq: 3})
	}
	for d := DocID(0); d < 8; d++ {
		rare.Entries = append(rare.Entries, Entry{Doc: d, Freq: int32(1 + d%5)})
	}
	ix := customIndex(t, []postings.TermPostings{ubiq, rare}, 24, 2)
	if idf := ix.meta().IDF(0); idf != 0 {
		t.Fatalf("ubiquitous term idf = %v, want 0", idf)
	}
	withUbiq := Query{{Term: 0, Fqt: 2}, {Term: 1, Fqt: 1}}
	withoutUbiq := Query{{Term: 1, Fqt: 1}}
	want := searchTop(t, ix, DF, 10, withoutUbiq)
	if len(want) == 0 {
		t.Fatal("empty reference answer")
	}
	for _, tc := range []struct {
		name string
		algo Algorithm
	}{{"DF", DF}, {"BAF", BAF}, {"MAXSCORE", Maxscore}} {
		got := searchTop(t, ix, tc.algo, 10, withUbiq)
		assertSameRanking(t, tc.name, got, want)
		for _, sd := range got {
			if math.IsNaN(sd.Score) || math.IsInf(sd.Score, 0) {
				t.Fatalf("%s: non-finite score %v", tc.name, sd.Score)
			}
		}
	}
}

// TestSearchIDFEdgeZeroDF is the other half of satellite 2: a term
// whose metadata carries df = 0 (corrupt or cross-shard statistics —
// the list itself may still hold pages) must contribute nothing.
// Historically the idf computation returned +Inf here, and 0·Inf = NaN poisoned
// every accumulator the list touched; the guarded IDF keeps the whole
// answer finite and identical to the query without the term.
func TestSearchIDFEdgeZeroDF(t *testing.T) {
	alpha := postings.TermPostings{Name: "alpha"}
	ghost := postings.TermPostings{Name: "ghost"}
	for d := DocID(0); d < 8; d++ {
		alpha.Entries = append(alpha.Entries, Entry{Doc: d, Freq: int32(2 + d)})
	}
	for d := DocID(8); d < 16; d++ {
		ghost.Entries = append(ghost.Entries, Entry{Doc: d, Freq: 1})
	}
	ix := customIndex(t, []postings.TermPostings{alpha, ghost}, 24, 2)

	// Doctor the ghost term's global statistics to the degenerate
	// edge, exactly as loaded shard metadata can present them, and
	// recompute its idf through the guarded definition.
	ghostID, ok := ix.LookupTerm("ghost")
	if !ok {
		t.Fatal("ghost not indexed")
	}
	ix.meta().Terms[ghostID].DF = 0
	ix.meta().Terms[ghostID].IDF = postings.IDFValue(ix.NumDocs(), 0)
	if got := ix.meta().Terms[ghostID].IDF; got != 0 {
		t.Fatalf("guarded idf(N, 0) = %v, want 0", got)
	}

	withGhost := Query{{Term: 0, Fqt: 1}, {Term: ghostID, Fqt: 3}}
	withoutGhost := Query{{Term: 0, Fqt: 1}}
	want := searchTop(t, ix, DF, 5, withoutGhost)
	if len(want) != 5 {
		t.Fatalf("reference answer has %d docs", len(want))
	}
	for _, tc := range []struct {
		name string
		algo Algorithm
	}{{"DF", DF}, {"BAF", BAF}, {"MAXSCORE", Maxscore}} {
		got := searchTop(t, ix, tc.algo, 5, withGhost)
		for _, sd := range got {
			if math.IsNaN(sd.Score) || math.IsInf(sd.Score, 0) {
				t.Fatalf("%s: non-finite score %v for doc %d", tc.name, sd.Score, sd.Doc)
			}
		}
		assertSameRanking(t, tc.name, got, want)
	}
}

// TestParseAlgorithm pins the flag vocabulary: DF, BAF and MAXSCORE
// parse; TA and NRA are unknown names.
func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"DF": DF, "baf": BAF, " maxscore ": Maxscore, "MAXSCORE": Maxscore,
	} {
		got, err := ParseAlgorithm(name)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", name, got, err)
		}
	}
	for _, name := range []string{"weblegend-x", "TA", " ta ", "NRA", "Nra"} {
		if _, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted an unknown name", name)
		}
	}
}

// TestUnknownAlgorithmRejected: an Algorithm value no method answers to
// fails construction instead of every query.
func TestUnknownAlgorithmRejected(t *testing.T) {
	_, ix := testIndex(t)
	opts := EvalOptions{Algorithm: Algorithm(42)}
	if _, err := ix.NewSession(SessionConfig{EvalOptions: opts}); err == nil {
		t.Error("NewSession accepted Algorithm(42)")
	}
	if _, err := ix.NewEngine(EngineConfig{EvalOptions: opts, BufferPages: 8}); err == nil {
		t.Error("NewEngine accepted Algorithm(42)")
	}
}
