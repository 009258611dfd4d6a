package indexfile_test

import (
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"bufir/internal/corpus"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
)

// metadataFootprintBound bounds the heap an opened default-scale page
// file and its conversion table retain: 30 000 terms on 47 191 pages.
// The term metadata is 48 bytes a term and the per-page statistics
// 12 bytes a page (term, minimum and maximum f_dt; offset and w* are
// computed), the page directory 16 bytes a page; the conversion table
// is 2 bytes a cell and 4 a term. The names, the vocabulary map and the
// document lengths make up the rest. This layout retains 5.3 MB; with
// two slices in every TermMeta, stored offsets and w* per page and a
// slice per table row it retained 8.1 MB.
const metadataFootprintBound = 6 << 20

// TestIndexMetadataFootprint pins the size of the memory-resident
// index: TermMeta holds no slice, and what OpenPageFile and
// NewConversionTable keep at default scale stays under
// metadataFootprintBound.
func TestIndexMetadataFootprint(t *testing.T) {
	if got := unsafe.Sizeof(postings.TermMeta{}); got != 48 {
		t.Errorf("TermMeta is %d bytes, want 48", got)
	}
	cfg := corpus.DefaultConfig(1998)
	path := filepath.Join(t.TempDir(), "footprint.bufir")
	func() {
		col, err := corpus.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ix, pages, err := postings.Build(col.Lists, col.NumDocs, cfg.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
			t.Fatal(err)
		}
	}()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pf, err := indexfile.OpenPageFile(path, indexfile.PageFileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	ct := postings.NewConversionTable(pf.Index, postings.DefaultMaxKey)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ct)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d terms on %d pages retain %d bytes (%.1f per term); table cells %d bytes",
		len(pf.Index.Terms), pf.Index.NumPagesTotal, retained, float64(retained)/float64(len(pf.Index.Terms)), ct.SizeBytes())
	if retained > metadataFootprintBound {
		t.Errorf("opened index and conversion table retain %d bytes, bound %d", retained, metadataFootprintBound)
	}
}
