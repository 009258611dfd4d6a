package livedex

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/shard"
	"bufir/internal/storage"
)

// corpus is a test collection: per-document term counts plus names.
type corpus struct {
	names []string
	docs  []map[string]int
}

func randomCorpus(rng *rand.Rand, nDocs, vocab, maxLen int, prefix string) corpus {
	c := corpus{}
	for d := 0; d < nDocs; d++ {
		counts := map[string]int{}
		for l := rng.Intn(maxLen + 1); l > 0; l-- {
			term := prefix + string(rune('a'+rng.Intn(vocab)%26)) + string(rune('a'+rng.Intn(vocab)/26))
			counts[term]++
		}
		c.names = append(c.names, prefix+"doc")
		c.docs = append(c.docs, counts)
	}
	return c
}

// liveTermOrder replays AddDoc's TermID assignment: main-generation
// order first, then new terms lexicographically within each added
// document, documents in arrival order. It is the oracle the reference
// rebuild must use, reimplemented independently of State.
func liveTermOrder(mainOrder []string, added []map[string]int) []string {
	order := append([]string(nil), mainOrder...)
	seen := map[string]bool{}
	for _, t := range mainOrder {
		seen[t] = true
	}
	for _, counts := range added {
		var fresh []string
		for t := range counts {
			if !seen[t] {
				fresh = append(fresh, t)
			}
		}
		sort.Strings(fresh)
		for _, t := range fresh {
			seen[t] = true
			order = append(order, t)
		}
	}
	return order
}

// buildRef runs postings.Build over the full corpus in the given term
// order — the from-scratch rebuild every commit must match bit for bit.
func buildRef(t *testing.T, docs []map[string]int, order []string, pageSize int) (*postings.Index, [][]postings.Entry) {
	t.Helper()
	byTerm := map[string][]postings.Entry{}
	for d, counts := range docs {
		for term, f := range counts {
			byTerm[term] = append(byTerm[term], postings.Entry{Doc: postings.DocID(d), Freq: int32(f)})
		}
	}
	lists := make([]postings.TermPostings, 0, len(order))
	for _, term := range order {
		lists = append(lists, postings.TermPostings{Name: term, Entries: byTerm[term]})
	}
	ix, pages, err := postings.Build(lists, len(docs), pageSize)
	if err != nil {
		t.Fatalf("reference Build: %v", err)
	}
	return ix, pages
}

// mainOrder is the deterministic term order used to build main
// generations in these tests: lexicographic over the main vocabulary.
func mainOrder(docs []map[string]int) []string {
	seen := map[string]bool{}
	for _, counts := range docs {
		for t := range counts {
			seen[t] = true
		}
	}
	order := make([]string, 0, len(seen))
	for t := range seen {
		order = append(order, t)
	}
	sort.Strings(order)
	return order
}

func newTestState(t *testing.T, main corpus, pageSize int) (*State, *storage.Store) {
	t.Helper()
	ix, pages := buildRef(t, main.docs, mainOrder(main.docs), pageSize)
	st := storage.NewStore(pages)
	s, err := NewState(ix, st, pages)
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return s, st
}

func addAll(t *testing.T, s *State, c corpus) {
	t.Helper()
	for d, counts := range c.docs {
		if _, err := s.AddDoc(c.names[d], counts); err != nil {
			t.Fatalf("AddDoc %d: %v", d, err)
		}
	}
}

// TestCommitMatchesRebuild is the core exactness property: a commit's
// metadata, page payloads, and overlay-served pages are bit-identical
// to postings.Build over the merged corpus.
func TestCommitMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pageSize := 2 + rng.Intn(5)
		main := randomCorpus(rng, 10+rng.Intn(20), 30, 12, "")
		added := randomCorpus(rng, 1+rng.Intn(8), 30, 12, "x")

		s, _ := newTestState(t, main, pageSize)
		addAll(t, s, added)
		c, err := s.Commit()
		if err != nil {
			t.Fatalf("seed %d: Commit: %v", seed, err)
		}

		all := append(append([]map[string]int(nil), main.docs...), added.docs...)
		refIx, refPages := buildRef(t, all, liveTermOrder(mainOrder(main.docs), added.docs), pageSize)

		if !reflect.DeepEqual(c.Meta, refIx) {
			t.Fatalf("seed %d: combined metadata differs from rebuild", seed)
		}
		if got := Pages(c); !reflect.DeepEqual(got, refPages) {
			t.Fatalf("seed %d: combined pages differ from rebuild", seed)
		}

		ov := NewOverlay(c, sMainIx(s), sMainStore(s))
		if ov.NumPages() != len(refPages) {
			t.Fatalf("seed %d: overlay has %d pages, rebuild %d", seed, ov.NumPages(), len(refPages))
		}
		for p := range refPages {
			got, err := ov.ReadContext(context.Background(), postings.PageID(p))
			if err != nil {
				t.Fatalf("seed %d: overlay read %d: %v", seed, p, err)
			}
			if !reflect.DeepEqual(got, refPages[p]) {
				t.Fatalf("seed %d: overlay page %d differs from rebuild", seed, p)
			}
		}
	}
}

// The State intentionally hides its generation internals; the tests
// reach them through the package-private fields.
func sMainIx(s *State) *postings.Index      { return s.mainIx }
func sMainStore(s *State) storage.PageStore { return s.mainStore }

// TestCommitSnapshotsAreFrozen: adds after a commit must not disturb
// the published epoch's pages.
func TestCommitSnapshotsAreFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	main := randomCorpus(rng, 12, 20, 10, "")
	added := randomCorpus(rng, 4, 20, 10, "x")
	s, _ := newTestState(t, main, 3)
	addAll(t, s, added)
	c1, err := s.Commit()
	if err != nil {
		t.Fatalf("Commit 1: %v", err)
	}
	want := make([][]postings.Entry, c1.Meta.NumPagesTotal)
	ov1 := NewOverlay(c1, sMainIx(s), sMainStore(s))
	for p := range want {
		pg, err := ov1.ReadContext(context.Background(), postings.PageID(p))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		want[p] = append([]postings.Entry(nil), pg...)
	}

	// Further ingestion (reusing terms that already have delta entries,
	// so the unsorted delta arrays grow and re-sort differently).
	addAll(t, s, added)
	if _, err := s.Commit(); err != nil {
		t.Fatalf("Commit 2: %v", err)
	}

	for p := range want {
		pg, err := ov1.ReadContext(context.Background(), postings.PageID(p))
		if err != nil {
			t.Fatalf("reread: %v", err)
		}
		if !reflect.DeepEqual(pg, want[p]) {
			t.Fatalf("epoch-1 page %d changed after later ingestion", p)
		}
	}
}

// TestApplyMergeRoundTrip: merge the commit into a new main
// generation, keep ingesting, and the next commit still matches the
// full rebuild.
func TestApplyMergeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pageSize := 3
	main := randomCorpus(rng, 15, 25, 10, "")
	batch1 := randomCorpus(rng, 5, 25, 10, "x")
	batch2 := randomCorpus(rng, 5, 25, 10, "y")

	s, _ := newTestState(t, main, pageSize)
	addAll(t, s, batch1)
	c1, err := s.Commit()
	if err != nil {
		t.Fatalf("Commit 1: %v", err)
	}
	if err := s.ApplyMerge(c1, storage.NewStore(Pages(c1))); err != nil {
		t.Fatalf("ApplyMerge: %v", err)
	}
	if s.DeltaDocs() != 0 || s.DeltaEntries() != 0 {
		t.Fatalf("delta not emptied by merge: %d docs, %d entries", s.DeltaDocs(), s.DeltaEntries())
	}

	addAll(t, s, batch2)
	c2, err := s.Commit()
	if err != nil {
		t.Fatalf("Commit 2: %v", err)
	}
	all := append(append(append([]map[string]int(nil), main.docs...), batch1.docs...), batch2.docs...)
	order := liveTermOrder(liveTermOrder(mainOrder(main.docs), batch1.docs), batch2.docs)
	refIx, refPages := buildRef(t, all, order, pageSize)
	if !reflect.DeepEqual(c2.Meta, refIx) {
		t.Fatal("post-merge commit metadata differs from full rebuild")
	}
	ov := NewOverlay(c2, sMainIx(s), sMainStore(s))
	for p := range refPages {
		got, err := ov.ReadContext(context.Background(), postings.PageID(p))
		if err != nil {
			t.Fatalf("overlay read %d: %v", p, err)
		}
		if !reflect.DeepEqual(got, refPages[p]) {
			t.Fatalf("post-merge overlay page %d differs from rebuild", p)
		}
	}
}

// TestApplyMergeStaleCommit: a commit that predates later adds must be
// rejected — merging it would drop postings.
func TestApplyMergeStaleCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	main := randomCorpus(rng, 10, 20, 8, "")
	s, _ := newTestState(t, main, 3)
	if _, err := s.AddDoc("d1", map[string]int{"alpha": 2}); err != nil {
		t.Fatal(err)
	}
	c, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddDoc("d2", map[string]int{"alpha": 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyMerge(c, storage.NewStore(Pages(c))); err == nil {
		t.Fatal("stale merge accepted")
	}
	// Wrong-size store rejected too.
	c2, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyMerge(c2, storage.NewStore(nil)); err == nil {
		t.Fatal("merge with wrong-size store accepted")
	}
}

// TestAddDocValidation covers the input contract: empty terms and
// non-positive frequencies are rejected atomically (no partial doc),
// and a document with no terms is legal and only grows N.
func TestAddDocValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	main := randomCorpus(rng, 8, 15, 8, "")
	s, _ := newTestState(t, main, 4)
	n := s.NumDocs()

	if _, err := s.AddDoc("bad", map[string]int{"": 1}); err == nil {
		t.Fatal("empty term accepted")
	}
	if _, err := s.AddDoc("bad", map[string]int{"ok": 0}); err == nil {
		t.Fatal("zero frequency accepted")
	}
	if s.NumDocs() != n || s.DeltaEntries() != 0 {
		t.Fatal("rejected AddDoc mutated the state")
	}

	doc, err := s.AddDoc("empty", map[string]int{})
	if err != nil {
		t.Fatalf("empty document rejected: %v", err)
	}
	if int(doc) != n || s.NumDocs() != n+1 || s.DeltaEntries() != 0 {
		t.Fatalf("empty document: doc=%d NumDocs=%d entries=%d", doc, s.NumDocs(), s.DeltaEntries())
	}
	// The empty doc still shifts N, hence every idf: the commit must
	// match a rebuild that includes it.
	c, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]map[string]int(nil), main.docs...), map[string]int{})
	refIx, _ := buildRef(t, all, mainOrder(main.docs), 4)
	if !reflect.DeepEqual(c.Meta, refIx) {
		t.Fatal("commit with empty document differs from rebuild")
	}
}

// TestCommitUntouchedTermsShareMainPages: an untouched term's combined
// list is its main list, backing array and all, so a commit copies no
// untouched page; a touched term's list is a fresh array.
func TestCommitUntouchedTermsShareMainPages(t *testing.T) {
	main := corpus{
		names: []string{"a", "b"},
		docs: []map[string]int{
			{"alpha": 3, "beta": 1},
			{"alpha": 1, "gamma": 2},
		},
	}
	s, _ := newTestState(t, main, 2)
	if _, err := s.AddDoc("c", map[string]int{"beta": 5}); err != nil {
		t.Fatal(err)
	}
	c, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	touched := c.Meta.Vocab["beta"]
	for term, list := range c.Lists {
		shared := &list[0] == &s.mainLists[term][0]
		if postings.TermID(term) == touched && shared {
			t.Fatal("touched term shares its main list")
		}
		if postings.TermID(term) != touched && !shared {
			t.Fatalf("untouched term %d does not share its main list", term)
		}
	}
}

// TestEveryProducerKeepsPageMaximaFalling: RAP's eviction order within
// a term is static because w* never rises along a list. Every producer
// of index metadata must keep it so: postings.Build, a commit view
// whose touched terms were merged and re-paged, and shard.Split's
// local re-paging of both. (RebuildPageMaps would reject a violation;
// the explicit walk keeps this test meaningful if that check moves.)
func TestEveryProducerKeepsPageMaximaFalling(t *testing.T) {
	falling := func(what string, ix *postings.Index) {
		t.Helper()
		multi := 0
		for t2, tm := range ix.Terms {
			if tm.NumPages > 1 {
				multi++
			}
			maxs := ix.PageMaxFreq(postings.TermID(t2))
			for i := 1; i < len(maxs); i++ {
				if maxs[i] > maxs[i-1] {
					t.Fatalf("%s: term %q page maxima rise at %d: %v", what, tm.Name, i, maxs)
				}
			}
		}
		if multi == 0 {
			t.Fatalf("%s: no multi-page list, nothing checked", what)
		}
	}
	rng := rand.New(rand.NewSource(77))
	main := randomCorpus(rng, 60, 12, 10, "")
	added := randomCorpus(rng, 25, 12, 10, "x")
	s, _ := newTestState(t, main, 3)
	falling("Build", sMainIx(s))
	addAll(t, s, added)
	c, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for tm, meta := range c.Meta.Terms {
		isNew := tm >= len(sMainIx(s).Terms)
		if (isNew || meta.DF != sMainIx(s).Terms[tm].DF) && meta.NumPages > 1 {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("no touched multi-page term in the commit view")
	}
	falling("commit view", c.Meta)
	parts, err := shard.Split(c.Meta, Pages(c), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		falling(fmt.Sprintf("partition %d of the commit view", i), p.Index)
	}
}
