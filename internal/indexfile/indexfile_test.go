package indexfile_test

import (
	"bytes"
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
func buildSample(t testing.TB) (*postings.Index, [][]postings.Entry) {
	t.Helper()
	cfg := corpus.TinyConfig(31)
	cfg.NumTopics = 5
	col, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	return ix, pages
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix, pages := buildSample(t)
	var buf bytes.Buffer
	if err := indexfile.Save(&buf, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	gotIx, gotPages, _, err := indexfile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if gotIx.NumDocs != ix.NumDocs || gotIx.PageSize != ix.PageSize ||
		gotIx.NumPagesTotal != ix.NumPagesTotal {
		t.Fatalf("header mismatch: %+v", gotIx)
	}
	if len(gotIx.Terms) != len(ix.Terms) {
		t.Fatalf("terms %d != %d", len(gotIx.Terms), len(ix.Terms))
	}
	for i := range ix.Terms {
		a, b := &ix.Terms[i], &gotIx.Terms[i]
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
	for d := range ix.DocLen {
		if ix.DocLen[d] != gotIx.DocLen[d] {
			t.Fatalf("docLen[%d] differs", d)
		}
	}
	if len(gotPages) != len(pages) {
		t.Fatalf("pages %d != %d", len(gotPages), len(pages))
	}
	for p := range pages {
		if !reflect.DeepEqual(pages[p], gotPages[p]) {
			t.Fatalf("page %d differs", p)
		}
	}
	// Derived page maps work.
	for p := 0; p < gotIx.NumPagesTotal; p++ {
		pid := postings.PageID(p)
		if gotIx.TermOfPage(pid) != ix.TermOfPage(pid) ||
			gotIx.PageOffset(pid) != ix.PageOffset(pid) ||
			gotIx.PageWStar(pid) != ix.PageWStar(pid) {
			t.Fatalf("page map differs at %d", p)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix, pages := buildSample(t)
	path := filepath.Join(t.TempDir(), "corpus.bufir")
	if err := indexfile.SaveFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	gotIx, gotPages, _, err := indexfile.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if gotIx.NumPagesTotal != len(gotPages) {
		t.Fatal("inconsistent load")
	}
}

// TestLoadedIndexQueriesIdentically: evaluation over a reloaded index
// gives exactly the results of the original.
func TestLoadedIndexQueriesIdentically(t *testing.T) {
	cfg := corpus.TinyConfig(32)
	col, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := indexfile.Save(&buf, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	ix2, pages2, _, err := indexfile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(i *postings.Index, p [][]postings.Entry) *eval.Result {
		st := storage.NewStore(p)
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
	a, b := run(ix, pages), run(ix2, pages2)
	if a.PagesRead != b.PagesRead || a.Accumulators != b.Accumulators || a.Smax != b.Smax {
		t.Fatalf("stats differ: %+v vs %+v", a, b)
	}
	for i := range a.Top {
		if a.Top[i] != b.Top[i] {
			t.Fatalf("ranking differs at %d", i)
		}
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	ix, pages := buildSample(t)
	var buf bytes.Buffer
	if err := indexfile.Save(&buf, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte("NOTIDX!"), good[7:]...)
	if _, _, _, err := indexfile.Load(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at structurally interesting points.
	for _, cut := range []int{3, 10, len(good) / 2, len(good) - 5, len(good) - 1} {
		if _, _, _, err := indexfile.Load(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Single-byte corruption in the payload must fail the checksum
	// (or earlier structural validation).
	for _, pos := range []int{20, len(good) / 3, len(good) - 10} {
		mut := append([]byte(nil), good...)
		mut[pos] ^= 0xff
		if _, _, _, err := indexfile.Load(bytes.NewReader(mut)); err == nil {
			t.Errorf("corruption at %d accepted", pos)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, _, _, err := indexfile.LoadFile(filepath.Join(t.TempDir(), "nope.bufir")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestAuxRoundTrip(t *testing.T) {
	ix, pages := buildSample(t)
	aux := &indexfile.Aux{
		DocNames:  []string{"a.txt", "b.txt", "c.txt"},
		StopWords: []string{"the", "of"},
	}
	var buf bytes.Buffer
	if err := indexfile.Save(&buf, ix, pages, aux); err != nil {
		t.Fatal(err)
	}
	_, _, gotAux, err := indexfile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotAux == nil {
		t.Fatal("aux lost")
	}
	if !reflect.DeepEqual(gotAux.DocNames, aux.DocNames) ||
		!reflect.DeepEqual(gotAux.StopWords, aux.StopWords) {
		t.Fatalf("aux differs: %+v", gotAux)
	}
}

// failingWriter errors after n bytes, exercising Save's error paths.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.remaining <= 0 {
		return 0, os.ErrClosed
	}
	n := len(p)
	if n > w.remaining {
		n = w.remaining
	}
	w.remaining -= n
	if n < len(p) {
		return n, os.ErrClosed
	}
	return n, nil
}

func TestSaveWriterErrors(t *testing.T) {
	// A minimal index keeps each save cheap enough to sweep every
	// possible failure offset, covering every write branch.
	lists := []postings.TermPostings{
		{Name: "aa", Entries: []postings.Entry{{Doc: 0, Freq: 3}, {Doc: 1, Freq: 1}, {Doc: 2, Freq: 1}}},
		{Name: "bb", Entries: []postings.Entry{{Doc: 1, Freq: 2}}},
	}
	ix, pages, err := postings.Build(lists, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	aux := &indexfile.Aux{DocNames: []string{"x", "y", "z"}, StopWords: []string{"the"}}
	var buf bytes.Buffer
	if err := indexfile.Save(&buf, ix, pages, aux); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	for cut := 0; cut < size; cut++ {
		if err := indexfile.Save(&failingWriter{remaining: cut}, ix, pages, aux); err == nil {
			t.Errorf("Save with writer failing at %d/%d bytes should error", cut, size)
		}
	}
	// And the nil-aux path with a failing writer (its file is smaller;
	// measure it separately).
	var nilBuf bytes.Buffer
	if err := indexfile.Save(&nilBuf, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	if err := indexfile.Save(&failingWriter{remaining: nilBuf.Len() - 2}, ix, pages, nil); err == nil {
		t.Error("indexfile.Save(nil aux) with failing writer should error")
	}
}

func TestSaveFileBadPath(t *testing.T) {
	ix, pages := buildSample(t)
	if err := indexfile.SaveFile("/nonexistent-dir/idx.bufir", ix, pages, nil); err == nil {
		t.Error("SaveFile into a missing directory should fail")
	}
}
