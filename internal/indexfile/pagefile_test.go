package indexfile

// Tests of the paged BUFIR3 container from inside the package: the
// round-trip property and the packed layout, header validation against
// hand-corrupted streams and older formats, and page access through
// both the mapping and the pread fallback. The black-box behavior of the format (as a
// PageStore backend) is covered by the storetest conformance suite.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufir/internal/codec"
	"bufir/internal/corpus"
	"bufir/internal/postings"
	"bufir/internal/shard"
)

// buildPages creates the reference index for round-trip tests.
func buildPages(tb testing.TB) (*postings.Index, [][]postings.Entry) {
	tb.Helper()
	cfg := corpus.TinyConfig(31)
	cfg.NumTopics = 5
	col, err := corpus.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
	if err != nil {
		tb.Fatal(err)
	}
	return ix, pages
}

// TestPageFileRoundTrip: build → write → open → every page
// byte-identical to the in-memory index, on both access paths, and the
// file is exactly its header plus the page blobs — nothing is padded.
func TestPageFileRoundTrip(t *testing.T) {
	ix, pages := buildPages(t)
	meta, err := encodeMeta(ix, nil)
	if err != nil {
		t.Fatal(err)
	}
	// magic+flags+metaLen, meta, metaCRC, numPages, directory, dirCRC.
	headerLen := int64(16 + len(meta) + 4 + 8 + pageDirEntrySize*len(pages) + 4)
	for _, opts := range []struct {
		name string
		o    PageFileOptions
	}{
		{"mmap", PageFileOptions{}},
		{"readat", PageFileOptions{DisableMmap: true}},
	} {
		t.Run(opts.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ix.bufir")
			if err := WritePageFile(path, ix, pages, nil); err != nil {
				t.Fatal(err)
			}
			pf, err := OpenPageFile(path, opts.o)
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()

			if pf.NumPages() != len(pages) {
				t.Fatalf("NumPages = %d, want %d", pf.NumPages(), len(pages))
			}
			// The page blobs follow the header with no gap between or
			// around them.
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != headerLen+pf.EncodedBytes() {
				t.Fatalf("file is %d bytes, want header %d + pages %d", st.Size(), headerLen, pf.EncodedBytes())
			}
			// Index metadata survives the trip.
			if pf.Index.NumDocs != ix.NumDocs || pf.Index.PageSize != ix.PageSize ||
				pf.Index.NumPagesTotal != ix.NumPagesTotal || len(pf.Index.Terms) != len(ix.Terms) {
				t.Fatalf("index header mismatch: %+v", pf.Index)
			}
			// Every page blob decodes to the exact in-memory payload.
			var buf []byte
			for id := range pages {
				blob, err := pf.PageBlob(id, buf)
				if err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
				if !pf.Mapped() {
					buf = blob
				}
				got, err := codec.DecodePage(blob, nil)
				if err != nil {
					t.Fatalf("page %d: %v", id, err)
				}
				if !reflect.DeepEqual(got, pages[id]) {
					t.Fatalf("page %d differs from in-memory index", id)
				}
			}
		})
	}
}

// TestPageFileAuxRoundTrip: auxiliary data (document names,
// stop-words) rides along in the paged format too.
func TestPageFileAuxRoundTrip(t *testing.T) {
	ix, pages := buildPages(t)
	aux := &Aux{
		DocNames:  []string{"a.txt", "b.txt", "c.txt"},
		StopWords: []string{"the", "of"},
	}
	path := filepath.Join(t.TempDir(), "ix.bufir")
	if err := WritePageFile(path, ix, pages, aux); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path, PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if !reflect.DeepEqual(pf.Aux, aux) {
		t.Fatalf("aux round trip: got %+v, want %+v", pf.Aux, aux)
	}
}

// TestPageFileRejectsCorruption corrupts each structural region of a
// valid file in turn and checks the open (or the page read) refuses
// it: magic, meta blob, directory, page blob, truncation.
func TestPageFileRejectsCorruption(t *testing.T) {
	ix, pages := buildPages(t)
	var orig bytes.Buffer
	if err := writePageFile(&orig, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	valid := orig.Bytes()

	// Region offsets: magic at 0; meta blob begins after
	// magic+flags+u64 = 7+1+8 = 16 bytes, so byte 24 lands inside it;
	// the directory sits before the data region; the last byte is
	// inside the final page blob.
	openAt := func(t *testing.T, data []byte) error {
		path := filepath.Join(t.TempDir(), "ix.bufir")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		pf, err := OpenPageFile(path, PageFileOptions{})
		if err != nil {
			return err
		}
		defer pf.Close()
		var buf []byte
		for id := 0; id < pf.NumPages(); id++ {
			blob, err := pf.PageBlob(id, buf)
			if err != nil {
				return err
			}
			if !pf.Mapped() {
				buf = blob
			}
		}
		return nil
	}

	if err := openAt(t, valid); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"magic", 0},
		{"meta", 24},
		{"tail-blob", len(valid) - 1},
		{"mid-file", len(valid) / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := append([]byte(nil), valid...)
			mutated[tc.off] ^= 0xFF
			if err := openAt(t, mutated); err == nil {
				t.Fatalf("flipping byte %d went undetected", tc.off)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, len(valid) / 2, len(valid) - 1} {
			if err := openAt(t, valid[:cut]); err == nil {
				t.Fatalf("truncation to %d bytes went undetected", cut)
			}
		}
	})
}

// TestWritePageFileValidation: the writer refuses impossible inputs
// instead of producing files the reader would reject: a page count
// that does not match the metadata, and a layout that is not
// postings.Paginate's.
func TestWritePageFileValidation(t *testing.T) {
	ix, pages := buildPages(t)
	path := filepath.Join(t.TempDir(), "ix.bufir")
	if err := WritePageFile(path, ix, pages[:len(pages)-1], nil); err == nil {
		t.Fatal("page-count mismatch accepted")
	}
	if err := WritePageFile(filepath.Join(t.TempDir(), "missing", "ix.bufir"), ix, pages, nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	// A shard partition keeps the collection's DF over its local pages,
	// so some terms have DF > 0 and no page: not Paginate's layout.
	parts, err := shard.Split(ix, pages, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePageFile(path, parts[0].Index, parts[0].Pages, nil); err == nil {
		t.Fatal("a shard partition was written")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a refused write left a file behind")
	}
}

// TestLoaderRejectsUnpaginatedTerms: metadata that breaks the paging
// rule — a term with DF > 0 on no page, or on more or fewer pages than
// ceil(DF/PageSize) — is refused at open even when every checksum
// matches (the stream is written below WritePageFile's own check).
func TestLoaderRejectsUnpaginatedTerms(t *testing.T) {
	lists := []postings.TermPostings{
		{Name: "aa", Entries: []postings.Entry{{Doc: 0, Freq: 3}, {Doc: 1, Freq: 1}, {Doc: 2, Freq: 1}}},
		{Name: "bb", Entries: []postings.Entry{{Doc: 1, Freq: 2}}},
	}
	for _, tc := range []struct {
		name string
		// keep is how many of aa's two pages the metadata and the
		// page payloads keep.
		keep int
	}{{"no pages", 0}, {"too few pages", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			built, pages, err := postings.Build(lists, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Lay the terms out again, aa (still DF 3) on only its
			// first tc.keep pages.
			ix := &postings.Index{NumDocs: built.NumDocs, PageSize: built.PageSize, Vocab: built.Vocab, DocLen: built.DocLen}
			for i, tm := range built.Terms {
				mins, maxs := built.PageMinFreq(postings.TermID(i)), built.PageMaxFreq(postings.TermID(i))
				if i == 0 {
					mins, maxs = mins[:tc.keep], maxs[:tc.keep]
				}
				ix.AppendBounds(&tm, mins, maxs)
				ix.Terms = append(ix.Terms, tm)
			}
			if err := ix.RebuildPageMaps(); err != nil {
				t.Fatal(err)
			}
			pages = append(pages[:tc.keep], pages[2:]...)
			path := filepath.Join(t.TempDir(), "ix.bufir")
			if err := WritePageFile(path, ix, pages, nil); err == nil {
				t.Fatal("WritePageFile wrote a term off the paging rule")
			}
			var buf bytes.Buffer
			if err := writePageFile(&buf, ix, pages, nil); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if pf, err := OpenPageFile(path, PageFileOptions{}); err == nil {
				pf.Close()
				t.Fatal("OpenPageFile accepted a term off the paging rule")
			}
		})
	}
}

// failingWriter errors after remaining bytes.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.remaining)
	w.remaining -= n
	if n < len(p) {
		return n, os.ErrClosed
	}
	return n, nil
}

// TestSaveWriterErrors: a writer failing at any offset — header,
// directory or page blobs — fails the write. A minimal index keeps each
// write cheap enough to sweep every offset.
func TestSaveWriterErrors(t *testing.T) {
	lists := []postings.TermPostings{
		{Name: "aa", Entries: []postings.Entry{{Doc: 0, Freq: 3}, {Doc: 1, Freq: 1}, {Doc: 2, Freq: 1}}},
		{Name: "bb", Entries: []postings.Entry{{Doc: 1, Freq: 2}}},
	}
	ix, pages, err := postings.Build(lists, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	aux := &Aux{DocNames: []string{"x", "y", "z"}, StopWords: []string{"the"}}
	var buf bytes.Buffer
	if err := writePageFile(&buf, ix, pages, aux); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if err := writePageFile(&failingWriter{remaining: cut}, ix, pages, aux); err == nil {
			t.Errorf("write with writer failing at %d/%d bytes succeeded", cut, buf.Len())
		}
	}
}

// TestPageBlobBounds: out-of-range page ids are refused on both
// access paths.
func TestPageBlobBounds(t *testing.T) {
	ix, pages := buildPages(t)
	for _, opts := range []PageFileOptions{{}, {DisableMmap: true}} {
		path := filepath.Join(t.TempDir(), "ix.bufir")
		if err := WritePageFile(path, ix, pages, nil); err != nil {
			t.Fatal(err)
		}
		pf, err := OpenPageFile(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.PageBlob(-1, nil); err == nil {
			t.Fatal("negative page id accepted")
		}
		if _, err := pf.PageBlob(pf.NumPages(), nil); err == nil {
			t.Fatal("past-the-end page id accepted")
		}
		pf.Close()
	}
}

// TestOpenRejectsOlderFormat: a file of the retired block-aligned
// BUFIR2 format (testdata/v2.bufir, written by that format's writer
// from the two-term index of TestSaveWriterErrors) is refused at open
// as not an index file.
func TestOpenRejectsOlderFormat(t *testing.T) {
	_, err := OpenPageFile(filepath.Join("testdata", "v2.bufir"), PageFileOptions{})
	if !errors.Is(err, ErrNotIndexFile) {
		t.Fatalf("OpenPageFile(BUFIR2 file) = %v, want ErrNotIndexFile", err)
	}
}

// TestHugePageSizeReopens: the directory's blob-size bound must not
// wrap for a page size whose 32-bit product would (any page size
// postings.Build accepts is legal). With pages of 2^30 entries a
// wrapped bound is 64 bytes, so a one-term index of 64 postings —
// one page of well over 64 bytes — must reopen and read back.
func TestHugePageSizeReopens(t *testing.T) {
	const numDocs = 64
	list := postings.TermPostings{Name: "aa"}
	for d := 0; d < numDocs; d++ {
		list.Entries = append(list.Entries, postings.Entry{Doc: postings.DocID(d), Freq: int32(numDocs - d)})
	}
	ix, pages, err := postings.Build([]postings.TermPostings{list}, numDocs, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "huge.bufir")
	if err := WritePageFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path, PageFileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer pf.Close()
	blob, err := pf.PageBlob(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.DecodePage(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pages[0]) {
		t.Fatalf("page 0 = %v, want %v", got, pages[0])
	}
}

// TestLoadersRejectRisingPageMaxima: a file whose metadata says a
// page's maximum frequency exceeds its predecessor's in the same list
// passes every checksum (the writer does not judge what it is given)
// and must still be refused at open — RAP would evict such a list in
// the wrong order without a sound.
func TestLoadersRejectRisingPageMaxima(t *testing.T) {
	ix, pages := buildPages(t)
	var victim []int32
	for i := range ix.Terms {
		if maxs := ix.PageMaxFreq(postings.TermID(i)); len(maxs) >= 3 && maxs[0] > maxs[len(maxs)-1] {
			victim = maxs
			break
		}
	}
	if victim == nil {
		t.Fatal("fixture has no list of three pages with falling maxima")
	}
	// The writer reads only the metadata arrays, so swapping the first
	// and last maxima of one list (in the index's own page array) is
	// all it takes.
	last := len(victim) - 1
	swap := func() { victim[0], victim[last] = victim[last], victim[0] }
	swap()
	defer swap()

	path := filepath.Join(t.TempDir(), "tampered.bufir")
	if err := WritePageFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	if pf, err := OpenPageFile(path, PageFileOptions{}); err == nil {
		pf.Close()
		t.Error("OpenPageFile accepted metadata with rising page maxima")
	}
}
