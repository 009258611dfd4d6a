package bufir

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bufir/internal/corpus"
	"bufir/internal/storage"
)

// testIndex builds a tiny synthetic collection + index shared by the
// package tests.
func testIndex(t testing.TB) (*Collection, *Index) {
	t.Helper()
	col, err := GenerateCollection(TinyCollectionConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	return col, ix
}

func TestIndexAccessors(t *testing.T) {
	col, ix := testIndex(t)
	if ix.NumDocs() != col.NumDocs {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if ix.NumTerms() != len(col.Lists) {
		t.Errorf("NumTerms = %d", ix.NumTerms())
	}
	if ix.NumPages() < ix.NumTerms() {
		t.Errorf("NumPages = %d < NumTerms", ix.NumPages())
	}
	if ix.PageSize() != col.Cfg.PageSize {
		t.Errorf("PageSize = %d", ix.PageSize())
	}
	id, ok := ix.LookupTerm(col.Lists[0].Name)
	if !ok {
		t.Fatal("LookupTerm failed")
	}
	if ix.TermName(id) != col.Lists[0].Name {
		t.Error("TermName mismatch")
	}
	if ix.meta().IDF(id) == 0 && len(col.Lists[0].Entries) != col.NumDocs {
		t.Error("IDF zero for non-universal term")
	}
	if ix.TermPages(id) < 1 {
		t.Error("TermPages < 1")
	}
	if !strings.HasPrefix(ix.DocName(3), "doc") {
		t.Errorf("DocName = %q", ix.DocName(3))
	}
}

func TestSessionSearch(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF}, Policy: RAP, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Fatal("no results")
	}
	if res.PagesRead == 0 {
		t.Error("cold search read nothing")
	}
	// Warm repeat must read fewer pages.
	res2, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PagesRead >= res.PagesRead {
		t.Errorf("warm search read %d pages, cold read %d", res2.PagesRead, res.PagesRead)
	}
	// BAF is an unsafe optimization: its processing order — and hence
	// its approximate scores — legitimately depend on buffer contents.
	// The answers must still substantially agree (the paper reports
	// effectiveness within 5%).
	cold := make(map[DocID]bool, len(res.Top))
	for _, sd := range res.Top {
		cold[sd.Doc] = true
	}
	overlap := 0
	for _, sd := range res2.Top {
		if cold[sd.Doc] {
			overlap++
		}
	}
	if overlap*5 < len(res.Top)*4 { // at least 80%
		t.Errorf("warm/cold top-n overlap %d/%d too low", overlap, len(res.Top))
	}
	st := s.BufferStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats = %+v", st)
	}
	mgr := s.user.Pool().Manager()
	s.FlushBuffers()
	if got := s.BufferStats(); got != st {
		t.Errorf("stats after flush = %+v, before %+v (Flush must not count)", got, st)
	}
	if got := mgr.ResidentPages(q[0].Term); got != 0 {
		t.Errorf("resident pages after flush = %d", got)
	}
}

// TestDuplicateQueryTermRejected: a query naming a term twice is
// refused on every serving surface — Session, Engine and Router — with
// no answer; a term's weight is its one query frequency.
func TestDuplicateQueryTermRejected(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	dup := append(Query{q[0], q[1]}, QueryTerm{Term: q[0].Term, Fqt: 1})
	s, err := ix.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	part, err := ix.NewEngine(EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter([]Searcher{part}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()
	for name, search := range map[string]func() (*Result, error){
		"session": func() (*Result, error) { return s.SearchContext(ctx, dup) },
		"engine":  func() (*Result, error) { return eng.SearchContext(ctx, 0, dup) },
		"router":  func() (*Result, error) { return router.SearchContext(ctx, 0, dup) },
	} {
		if res, err := search(); err == nil || res != nil && len(res.Top) > 0 {
			t.Errorf("%s: duplicate term answered (err %v)", name, err)
		}
	}
}

// TestDFRankingBufferIndependent: DF's evaluation strategy ignores
// buffer contents entirely, so warm and cold runs rank identically
// (the property the paper uses as its stability baseline).
func TestDFRankingBufferIndependent(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[2])
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: DF}, Policy: LRU, BufferPages: 48})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Top) != len(warm.Top) {
		t.Fatalf("result sizes differ: %d vs %d", len(cold.Top), len(warm.Top))
	}
	for i := range cold.Top {
		if cold.Top[i] != warm.Top[i] {
			t.Fatalf("DF ranking changed with buffer state at position %d", i)
		}
	}
}

func TestSessionDefaultsAndValidation(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != 20 {
		t.Errorf("default TopN = %d", len(res.Top))
	}
	if _, err := ix.NewSession(SessionConfig{Policy: "FIFO"}); err == nil {
		t.Error("unknown policy should fail")
	}
	// Unfiltered session runs exhaustive evaluation: every document of
	// every list gets an accumulator, which the default filter prevents.
	su, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}, BufferPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	full, err := su.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Accumulators <= res.Accumulators {
		t.Errorf("unfiltered accumulators %d <= default %d: defaults should enable filtering",
			full.Accumulators, res.Accumulators)
	}
	postings := 0
	for _, qt := range q {
		postings += ix.meta().Terms[qt.Term].DF
	}
	if full.EntriesProcessed != postings {
		t.Errorf("Unfiltered processed %d entries, want all %d: it should zero the constants",
			full.EntriesProcessed, postings)
	}
}

func TestUnfilteredReadsMore(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	full, _ := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}, BufferPages: 4096})
	filt, _ := ix.NewSession(SessionConfig{BufferPages: 4096})
	fres, err := full.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := filt.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.PagesRead >= fres.PagesRead {
		t.Errorf("filtered read %d >= unfiltered %d", res.PagesRead, fres.PagesRead)
	}
	if res.Accumulators >= fres.Accumulators {
		t.Errorf("filtered accumulators %d >= unfiltered %d", res.Accumulators, fres.Accumulators)
	}
}

func TestRefinementSequenceAPI(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := ix.RankTermsByContribution(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(q) {
		t.Fatalf("ranked %d terms, want %d", len(ranked), len(q))
	}
	seq, err := BuildRefinementSequence(col.Topics[0].ID, AddOnly, ranked)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Refinements) < 2 {
		t.Fatal("sequence too short")
	}
	// Run the sequence through a session; disk reads must be positive
	// and the API's relevance metric must work.
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF}, Policy: RAP, BufferPages: 100})
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelevanceSet(col.Topics[0].Relevant)
	for _, rq := range seq.Refinements {
		res, err := s.Search(rq)
		if err != nil {
			t.Fatal(err)
		}
		ap := AveragePrecision(res.Top, rel)
		if ap < 0 || ap > 1 {
			t.Errorf("AP out of range: %g", ap)
		}
	}
}

func TestIndexDocumentsAndSearchText(t *testing.T) {
	texts := corpus.SynthesizeText(5, 120, 400, 30, 80)
	docs := make([]Document, len(texts))
	for i, txt := range texts {
		docs[i] = Document{Name: "synth", Text: txt}
	}
	// Add a recognizable document.
	docs = append(docs, Document{
		Name: "wsj-1",
		Text: "Drastic price increases hit American stockmarkets as investors panicked. Stockmarket trading volumes surged; price levels kept increasing drastically.",
	})
	ix, err := IndexDocuments(docs, IndexOptions{PageSize: 16, NumStopWords: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: BAF, Unfiltered: true}, Policy: RAP, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SearchTextContext(context.Background(), "drastic price increases in American stockmarkets")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) == 0 {
		t.Fatal("no results")
	}
	if ix.DocName(res.Top[0].Doc) != "wsj-1" {
		t.Errorf("top doc = %q, want wsj-1", ix.DocName(res.Top[0].Doc))
	}
	// An id outside the named documents gets a synthetic name, as on a
	// generated index.
	if got := ix.DocName(-1); got != "doc-1" {
		t.Errorf("DocName(-1) = %q, want doc-1", got)
	}
	// ParseQuery fails gracefully on nonsense.
	if _, err := s.SearchTextContext(context.Background(), "zzzzqqqq xxxyyy"); err == nil {
		t.Error("unindexable query should fail")
	}
	// ParseQuery is unavailable for synthetic indexes.
	_, synthIx := testIndex(t)
	if _, err := synthIx.ParseQuery("anything"); err == nil {
		t.Error("ParseQuery should require a document-built index")
	}
}

// TestParseQueryFrequencies: a repeated word counts as one query term
// with f_qt = 2, through the lexical pipeline of a document-built
// index and through the whitespace path of a synthetic one.
func TestParseQueryFrequencies(t *testing.T) {
	docs := []Document{
		{Name: "a", Text: "gold gold gold silver copper metals gold silver"},
		{Name: "b", Text: "silver copper platinum"},
		{Name: "c", Text: "iron ore mining"},
	}
	text, err := IndexDocuments(docs, IndexOptions{PageSize: 8, NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	_, synth := testIndex(t)
	a, b := synth.TermName(10), synth.TermName(11)
	for _, tc := range []struct {
		name  string
		ix    *Index
		query string
		want  map[string]int
	}{
		{"document-built", text, "gold gold silver", map[string]int{"gold": 2, "silver": 1}},
		{"synthetic", synth, a + " " + b + " " + a, map[string]int{a: 2, b: 1}},
	} {
		q, err := tc.ix.ParseQuery(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		byName := map[string]int{}
		for _, qt := range q {
			byName[tc.ix.TermName(qt.Term)] = qt.Fqt
		}
		if !reflect.DeepEqual(byName, tc.want) {
			t.Errorf("%s: query frequencies = %v, want %v", tc.name, byName, tc.want)
		}
		// The query evaluates: no term appears twice in it.
		s, err := tc.ix.NewSession(SessionConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Search(q); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestDiskReadAccounting(t *testing.T) {
	col, ix := testIndex(t)
	ix.ResetDiskReads()
	q, _ := ix.TopicQuery(col.Topics[1])
	s, _ := ix.NewSession(SessionConfig{BufferPages: 32})
	res, err := s.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if ix.DiskReads() != int64(res.PagesRead) {
		t.Errorf("index DiskReads %d != result PagesRead %d", ix.DiskReads(), res.PagesRead)
	}
}

func TestLookupTermThroughPipeline(t *testing.T) {
	docs := []Document{
		{Name: "a", Text: "computing computers computation"},
		{Name: "b", Text: "networks"},
	}
	ix, err := IndexDocuments(docs, IndexOptions{NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Raw surface form resolves via the pipeline to the stem.
	id, ok := ix.LookupTerm("computers")
	if !ok {
		t.Fatal("LookupTerm(computers) failed")
	}
	if ix.TermName(id) != "comput" {
		t.Errorf("resolved to %q", ix.TermName(id))
	}
}

// TestIndexSaveOpen: WriteFile → OpenIndexFile reproduces the index's
// shape and answers; only the file-backed copy holds compressed pages,
// so only it reports compression statistics.
func TestIndexSaveOpen(t *testing.T) {
	col, ix := testIndex(t)
	loaded := openFileBacked(t, ix)
	if loaded.NumDocs() != ix.NumDocs() || loaded.NumTerms() != ix.NumTerms() ||
		loaded.NumPages() != ix.NumPages() {
		t.Fatal("loaded index shape differs")
	}
	fs, ok := loaded.view().base.(*storage.FileStore)
	if !ok {
		t.Fatal("file-backed index has no file store")
	}
	if st := fs.CompressionStats(); st.Ratio() < 2 {
		t.Errorf("compression ratio %.2f suspiciously low", st.Ratio())
	}
	if _, ok := ix.view().base.(*storage.FileStore); ok {
		t.Error("in-memory index should have no file store")
	}
	// The block size is retired: anything but 0 is refused.
	if err := ix.WriteFile(filepath.Join(t.TempDir(), "ix.bufir"), 4096); err == nil {
		t.Error("WriteFile with a block size of 4096 succeeded")
	}
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	// Contribution ranking reads quietly off the file.
	if _, err := loaded.RankTermsByContribution(q); err != nil {
		t.Fatalf("RankTermsByContribution over the file: %v", err)
	}
	run := func(i *Index) *Result {
		s, err := i.NewSession(SessionConfig{EvalOptions: EvalOptions{Algorithm: DF}, Policy: RAP, BufferPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(ix), run(loaded)
	if a.PagesRead != b.PagesRead || a.Accumulators != b.Accumulators {
		t.Errorf("stats differ: reads %d/%d accums %d/%d", a.PagesRead, b.PagesRead, a.Accumulators, b.Accumulators)
	}
	for i := range a.Top {
		if a.Top[i] != b.Top[i] {
			t.Fatalf("ranking differs at %d", i)
		}
	}
}

func TestDocumentIndexSaveOpenKeepsTextSearch(t *testing.T) {
	docs := []Document{
		{Name: "a", Text: "the gold market rallied; gold futures jumped"},
		{Name: "b", Text: "the silver market slipped"},
		{Name: "c", Text: "the weather was mild and the parade was long"},
	}
	ix, err := IndexDocuments(docs, IndexOptions{PageSize: 8, NumStopWords: 1})
	if err != nil {
		t.Fatal(err)
	}
	loaded := openFileBacked(t, ix)
	s, err := loaded.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SearchTextContext(context.Background(), "gold markets")
	if err != nil {
		t.Fatalf("text search after reload: %v", err)
	}
	if len(res.Top) == 0 || loaded.DocName(res.Top[0].Doc) != "a" {
		t.Errorf("top result = %v", res.Top)
	}
}

func TestPhraseSearch(t *testing.T) {
	docs := []Document{
		{Name: "a", Text: "the stock market crashed badly today"},
		{Name: "b", Text: "market news: crashed servers delayed stock trading"},
		{Name: "c", Text: "the stock exchange and the market"},
	}
	ix, err := IndexDocuments(docs, IndexOptions{PageSize: 8, NumStopWords: -1, Positional: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Unquoted: every doc mentioning the terms ranks.
	loose, err := s.SearchTextContext(context.Background(), "stock market")
	if err != nil {
		t.Fatal(err)
	}
	if len(loose.Top) != 3 {
		t.Fatalf("loose search returned %d docs, want 3", len(loose.Top))
	}
	// Quoted: only the doc with the exact adjacency survives.
	strict, err := s.SearchTextContext(context.Background(), `"stock market" crashed`)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Top) != 1 || ix.DocName(strict.Top[0].Doc) != "a" {
		t.Fatalf("phrase search = %v", strict.Top)
	}
	// The operator directly.
	ph, err := ix.positional.Phrase([]string{"stock", "market"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph) != 1 || ph[0] != 0 {
		t.Errorf("Phrase = %v", ph)
	}
	// Phrase queries without positional data fail loudly, before
	// anything is evaluated: no page enters the pool, no read is charged.
	plain, err := IndexDocuments(docs, IndexOptions{PageSize: 8, NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := plain.NewSession(SessionConfig{EvalOptions: EvalOptions{Unfiltered: true}})
	if _, err := ps.SearchTextContext(context.Background(), `"stock market"`); !errors.Is(err, ErrNoPositional) {
		t.Errorf("phrase query without positional index: err = %v, want ErrNoPositional", err)
	}
	if st := ps.BufferStats(); st.Misses != 0 || plain.DiskReads() != 0 {
		t.Errorf("refused phrase query read pages: %d misses, %d disk reads", st.Misses, plain.DiskReads())
	}
}

func TestExtractPhrases(t *testing.T) {
	phrases, stripped := extractPhrases(`alpha "beta gamma" delta "epsilon" "" trailing`)
	if len(phrases) != 2 {
		t.Fatalf("phrases = %v", phrases)
	}
	if phrases[0][0] != "beta" || phrases[0][1] != "gamma" || phrases[1][0] != "epsilon" {
		t.Errorf("phrases = %v", phrases)
	}
	for _, w := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "trailing"} {
		if !strings.Contains(stripped, w) {
			t.Errorf("stripped %q lost word %q", stripped, w)
		}
	}
	if strings.Contains(stripped, `"`) {
		t.Errorf("stripped %q still has quotes", stripped)
	}
	// Unbalanced quote: remainder passes through unchanged.
	_, st := extractPhrases(`a "b c`)
	if !strings.Contains(st, "b") {
		t.Errorf("unbalanced quote lost text: %q", st)
	}
}

// TestLiveViewDocNamesStayFixed: every live publication names its
// documents by a capacity-capped prefix of one growing name list, so a
// view taken early keeps exactly the names it was published with
// across later commits and a merge, and the latest view names every
// document.
func TestLiveViewDocNamesStayFixed(t *testing.T) {
	docs := []Document{{Name: "a", Text: "gold silver"}, {Name: "b", Text: "silver copper"}}
	ix, err := IndexDocuments(docs, IndexOptions{NumStopWords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.EnableLiveUpdates(LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	type snapshot struct {
		v     *idxView
		names []string
	}
	var snaps []snapshot
	record := func() {
		v := ix.view()
		snaps = append(snaps, snapshot{v, append([]string(nil), v.docNames...)})
	}
	record()
	want := []string{"a", "b"}
	for i := 0; i < 6; i++ {
		name := "n" + string(rune('0'+i))
		if _, err := ix.Add(name, "gold tin"); err != nil {
			t.Fatal(err)
		}
		want = append(want, name)
		record()
		if i == 2 {
			if err := ix.Merge(); err != nil {
				t.Fatal(err)
			}
			record()
		}
	}
	for i, s := range snaps {
		if !reflect.DeepEqual(s.v.docNames, s.names) {
			t.Errorf("view %d (epoch %d): names now %q, published %q", i, s.v.epoch, s.v.docNames, s.names)
		}
		if n := s.v.ix.NumDocs; len(s.v.docNames) != n || cap(s.v.docNames) != n {
			t.Errorf("view %d (epoch %d): %d names of capacity %d for %d documents", i, s.v.epoch, len(s.v.docNames), cap(s.v.docNames), n)
		}
	}
	if got := snaps[len(snaps)-1].names; !reflect.DeepEqual(got, want) {
		t.Errorf("latest view names %q, want %q", got, want)
	}
	for d, name := range want {
		if got := ix.DocName(DocID(d)); got != name {
			t.Errorf("DocName(%d) = %q, want %q", d, got, name)
		}
	}
}
