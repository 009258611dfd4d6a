package indexfile_test

// Black-box tests of a written and reopened index file: the metadata
// it reconstructs, aux data included, and query evaluation over pages
// served from the file.

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// buildSample creates a small index from the synthetic corpus.
func buildSample(t testing.TB, seed int64) (*corpus.Collection, *postings.Index, [][]postings.Entry) {
	t.Helper()
	cfg := corpus.TinyConfig(seed)
	cfg.NumTopics = 5
	col, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return col, ix, pages
}

// writeFile persists the index and checks the atomic write left no
// temp file behind.
func writeFile(t *testing.T, ix *postings.Index, pages [][]postings.Entry, aux *indexfile.Aux) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.bufir")
	if err := indexfile.WritePageFile(path, ix, pages, aux); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	return path
}

// TestSaveLoadRoundTrip: a reopened file reconstructs the metadata
// field by field, derived page maps included.
func TestSaveLoadRoundTrip(t *testing.T) {
	_, ix, pages := buildSample(t, 31)
	pf, err := indexfile.OpenPageFile(writeFile(t, ix, pages, nil), indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	got := pf.Index

	if got.NumDocs != ix.NumDocs || got.PageSize != ix.PageSize || got.NumPagesTotal != ix.NumPagesTotal {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Terms) != len(ix.Terms) {
		t.Fatalf("terms %d != %d", len(got.Terms), len(ix.Terms))
	}
	for i := range ix.Terms {
		a, b := &ix.Terms[i], &got.Terms[i]
		if a.Name != b.Name || a.DF != b.DF || a.FMax != b.FMax ||
			a.FirstPage != b.FirstPage || a.NumPages != b.NumPages {
			t.Fatalf("term %d metadata differs: %+v vs %+v", i, a, b)
		}
		if math.Abs(a.IDF-b.IDF) > 1e-12 {
			t.Fatalf("term %d idf differs", i)
		}
		if !reflect.DeepEqual(a.PageMinFreq, b.PageMinFreq) ||
			!reflect.DeepEqual(a.PageMaxFreq, b.PageMaxFreq) {
			t.Fatalf("term %d page stats differ", i)
		}
	}
	if !reflect.DeepEqual(got.DocLen, ix.DocLen) {
		t.Fatal("document lengths differ")
	}
	for p := 0; p < got.NumPagesTotal; p++ {
		pid := postings.PageID(p)
		if got.TermOfPage(pid) != ix.TermOfPage(pid) ||
			got.PageOffset(pid) != ix.PageOffset(pid) ||
			got.PageWStar(pid) != ix.PageWStar(pid) {
			t.Fatalf("page map differs at %d", p)
		}
	}
}

// TestLoadedIndexQueriesIdentically: evaluation over pages served from
// a reopened file gives exactly the results of the original.
func TestLoadedIndexQueriesIdentically(t *testing.T) {
	col, ix, pages := buildSample(t, 32)
	fs, err := storage.OpenFileStore(writeFile(t, ix, pages, nil), indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	run := func(i *postings.Index, st buffer.PageReader) *eval.Result {
		mgr, err := buffer.NewManager(64, 1, st, i, func(int) buffer.Policy { return buffer.NewRAP() })
		if err != nil {
			t.Fatal(err)
		}
		conv := postings.NewConversionTable(i, postings.DefaultMaxKey)
		ev, err := eval.NewEvaluator(i, mgr, conv, eval.TunedParams())
		if err != nil {
			t.Fatal(err)
		}
		// Query: the first topic's terms.
		var q eval.Query
		for _, tt := range col.Topics[0].Terms {
			id, ok := i.LookupTerm(tt.Term)
			if !ok {
				t.Fatalf("term %q missing", tt.Term)
			}
			q = append(q, eval.QueryTerm{Term: id, Fqt: tt.Fqt})
		}
		res, err := ev.Evaluate(eval.BAF, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(ix, storage.NewStore(pages)), run(fs.File().Index, fs)
	if a.PagesRead != b.PagesRead || a.Accumulators != b.Accumulators || a.Smax != b.Smax {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	for i := range a.Top {
		if a.Top[i] != b.Top[i] {
			t.Fatalf("ranking differs at %d", i)
		}
	}
}

// TestAuxRoundTrip: partial aux data (none, names only, stop-words
// only) comes back from the file exactly as written; the full case is
// TestPageFileAuxRoundTrip.
func TestAuxRoundTrip(t *testing.T) {
	_, ix, pages := buildSample(t, 31)
	for _, aux := range []*indexfile.Aux{
		nil,
		{DocNames: []string{"a.txt", "b.txt", "c.txt"}},
		{StopWords: []string{"the", "of"}},
	} {
		pf, err := indexfile.OpenPageFile(writeFile(t, ix, pages, aux), indexfile.PageFileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pf.Aux, aux) {
			t.Errorf("aux round trip: got %+v, want %+v", pf.Aux, aux)
		}
		pf.Close()
	}
}
