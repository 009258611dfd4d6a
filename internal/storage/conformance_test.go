package storage_test

import (
	"path/filepath"
	"testing"

	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/storage/storetest"
)

// backends enumerates this package's PageStore implementations under
// the conformance suite: the paper's in-memory simulator and the
// file-backed store over both of its access paths (memory-mapped and
// pread). internal/livedex runs the same suite over its Overlay.
var backends = []struct {
	name string
	make storetest.Factory
}{
	{"simulator", func(tb testing.TB, ix *postings.Index, pages [][]postings.Entry) storage.PageStore {
		return storage.NewStore(pages)
	}},
	{"file-mmap", fileFactory(indexfile.PageFileOptions{})},
	{"file-readat", fileFactory(indexfile.PageFileOptions{DisableMmap: true})},
}

// fileFactory writes the reference pages into a real paged index file
// and serves the store from it.
func fileFactory(opts indexfile.PageFileOptions) storetest.Factory {
	return func(tb testing.TB, ix *postings.Index, pages [][]postings.Entry) storage.PageStore {
		path := filepath.Join(tb.TempDir(), "pages.bufir")
		if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
			tb.Fatal(err)
		}
		fs, err := storage.OpenFileStore(path, opts)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { fs.Close() })
		return fs
	}
}

// TestPageStoreConformance holds every backend to the PageStore
// contract (read equivalence, delivered-only accounting, context and
// fault behavior, concurrency, pool equivalence).
func TestPageStoreConformance(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) { storetest.Run(t, be.make) })
	}
}

// BenchmarkPageStore prices one logical page read on each backend —
// the simulator's counter increment versus the file store's real
// I/O + checksum + decompression.
func BenchmarkPageStore(b *testing.B) {
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) { storetest.RunBench(b, be.make) })
	}
}
