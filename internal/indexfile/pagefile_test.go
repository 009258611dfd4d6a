package indexfile

// Tests of the paged BUFIR2 container from inside the package: the
// round-trip property across block sizes, header validation against
// hand-corrupted streams, and page access through both the mapping
// and the pread fallback. The black-box behavior of the format (as a
// PageStore backend) is covered by the storetest conformance suite.

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufir/internal/codec"
	"bufir/internal/corpus"
	"bufir/internal/postings"
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

// TestPageFileRoundTrip is the satellite property test: build →
// write → open → every page byte-identical to the in-memory index,
// across the block sizes the issue calls out (plus 0 = packed), on
// both access paths.
func TestPageFileRoundTrip(t *testing.T) {
	ix, pages := buildPages(t)
	for _, blockSize := range []int{0, 1 << 10, 2 << 10, 4 << 10, 8 << 10} {
		for _, opts := range []struct {
			name string
			o    PageFileOptions
		}{
			{"mmap", PageFileOptions{}},
			{"readat", PageFileOptions{DisableMmap: true}},
		} {
			t.Run(fmt.Sprintf("bs=%d/%s", blockSize, opts.name), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ix.bufir2")
				if err := WritePageFile(path, ix, pages, nil, blockSize); err != nil {
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
				if pf.BlockSize() != blockSize {
					t.Fatalf("BlockSize = %d, want %d", pf.BlockSize(), blockSize)
				}
				// Index metadata survives the trip.
				if pf.Index.NumDocs != ix.NumDocs || pf.Index.PageSize != ix.PageSize ||
					pf.Index.NumPagesTotal != ix.NumPagesTotal || len(pf.Index.Terms) != len(ix.Terms) {
					t.Fatalf("index header mismatch: %+v", pf.Index)
				}
				// Every page blob decodes to the exact in-memory payload
				// (byte equality of the entries, per the satellite).
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
}

// TestPageFileAuxRoundTrip: auxiliary data (document names,
// stop-words) rides along in the paged format too.
func TestPageFileAuxRoundTrip(t *testing.T) {
	ix, pages := buildPages(t)
	aux := &Aux{
		DocNames:  []string{"a.txt", "b.txt", "c.txt"},
		StopWords: []string{"the", "of"},
	}
	path := filepath.Join(t.TempDir(), "ix.bufir2")
	if err := WritePageFile(path, ix, pages, aux, DefaultBlockSize); err != nil {
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
	if err := writePageFile(&orig, ix, pages, nil, 1<<10); err != nil {
		t.Fatal(err)
	}
	valid := orig.Bytes()

	// Region offsets: magic at 0; meta blob begins after
	// magic+flags+u32+u64 = 7+1+4+8 = 20 bytes (varint meta len first,
	// so +1 lands inside the meta); the directory sits before the data
	// region; the last byte is inside the final page blob.
	openAt := func(t *testing.T, data []byte) error {
		path := filepath.Join(t.TempDir(), "ix.bufir2")
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
// instead of producing files the reader would reject.
func TestWritePageFileValidation(t *testing.T) {
	ix, pages := buildPages(t)
	path := filepath.Join(t.TempDir(), "ix.bufir2")
	if err := WritePageFile(path, ix, pages, nil, -1); err == nil {
		t.Fatal("negative block size accepted")
	}
	if err := WritePageFile(path, ix, pages, nil, maxBlockSize+1); err == nil {
		t.Fatal("oversized block size accepted")
	}
	if err := WritePageFile(path, ix, pages[:len(pages)-1], nil, 0); err == nil {
		t.Fatal("page-count mismatch accepted")
	}
	if err := WritePageFile(filepath.Join(t.TempDir(), "missing", "ix.bufir2"), ix, pages, nil, 0); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a refused write left a file behind")
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

// TestSaveWriterErrors: a writer failing at any offset — header, block
// padding or page blobs — fails the write. A minimal index keeps each
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
	const blockSize = 16 // pads between blobs
	var buf bytes.Buffer
	if err := writePageFile(&buf, ix, pages, aux, blockSize); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < buf.Len(); cut++ {
		if err := writePageFile(&failingWriter{remaining: cut}, ix, pages, aux, blockSize); err == nil {
			t.Errorf("write with writer failing at %d/%d bytes succeeded", cut, buf.Len())
		}
	}
}

// TestPageBlobBounds: out-of-range page ids are refused on both
// access paths.
func TestPageBlobBounds(t *testing.T) {
	ix, pages := buildPages(t)
	for _, opts := range []PageFileOptions{{}, {DisableMmap: true}} {
		path := filepath.Join(t.TempDir(), "ix.bufir2")
		if err := WritePageFile(path, ix, pages, nil, 0); err != nil {
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

// TestAlignUp pins the alignment helper at its edges — the math
// every directory offset rests on.
func TestAlignUp(t *testing.T) {
	for _, tc := range []struct{ v, a, want uint64 }{
		{0, 4096, 0},
		{1, 4096, 4096},
		{4096, 4096, 4096},
		{4097, 4096, 8192},
		{math.MaxUint64 - 4095, 4096, math.MaxUint64 - 4095},
	} {
		if got := alignUp(tc.v, tc.a); got != tc.want {
			t.Fatalf("alignUp(%d, %d) = %d, want %d", tc.v, tc.a, got, tc.want)
		}
	}
}

// TestLoadersRejectRisingPageMaxima: a file whose metadata says a
// page's maximum frequency exceeds its predecessor's in the same list
// passes every checksum (the writer does not judge what it is given)
// and must still be refused at open — RAP would evict such a list in
// the wrong order without a sound.
func TestLoadersRejectRisingPageMaxima(t *testing.T) {
	ix, pages := buildPages(t)
	var victim *postings.TermMeta
	for i := range ix.Terms {
		if tm := &ix.Terms[i]; tm.NumPages >= 3 && tm.PageMaxFreq[0] > tm.PageMaxFreq[tm.NumPages-1] {
			victim = tm
			break
		}
	}
	if victim == nil {
		t.Fatal("fixture has no list of three pages with falling maxima")
	}
	// The writer reads only the metadata arrays, so swapping the first
	// and last maxima of one list is all it takes.
	tampered := append([]int32(nil), victim.PageMaxFreq...)
	tampered[0], tampered[len(tampered)-1] = tampered[len(tampered)-1], tampered[0]
	good := victim.PageMaxFreq
	victim.PageMaxFreq = tampered
	defer func() { victim.PageMaxFreq = good }()

	path := filepath.Join(t.TempDir(), "tampered.bufir2")
	if err := WritePageFile(path, ix, pages, nil, 4<<10); err != nil {
		t.Fatal(err)
	}
	if pf, err := OpenPageFile(path, PageFileOptions{}); err == nil {
		pf.Close()
		t.Error("OpenPageFile accepted metadata with rising page maxima")
	}
}
