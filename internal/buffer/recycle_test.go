package buffer

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// The tests in this file cover recycling: a miss that evicts decodes
// the new page into the victim's entries when the store hands over
// what it decodes (storage.IntoReader), and never when it shares them.

// goldenFile writes goldenIndex's pages as a paged index file.
func goldenFile(t *testing.T) (string, *postings.Index, [][]postings.Entry) {
	t.Helper()
	ix, pages := goldenIndex(t)
	path := filepath.Join(t.TempDir(), "pages.bufir")
	if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	return path, ix, pages
}

// openFile serves path through a FileStore closed with the test.
func openFile(t *testing.T, path string, opts indexfile.PageFileOptions) *storage.FileStore {
	t.Helper()
	fs, err := storage.OpenFileStore(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// TestEvictionRecyclesEntries: in a one-frame pool over a file store —
// either access path, bare or under a fault layer — page B's entries
// occupy the array page A's frame held before B evicted it, and a
// steady-state miss allocates only its Frame, which on a 64-bit
// platform stays in the 112-byte size class.
func TestEvictionRecyclesEntries(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 112 {
		t.Errorf("a Frame takes %d bytes, past the 112-byte size class every miss allocates", size)
	}
	path, ix, pages := goldenFile(t)
	a, b := ix.PageOf(0, 0), ix.PageOf(0, 1) // two full pages of one list
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) storage.PageStore
	}{
		{"mmap", func(t *testing.T) storage.PageStore { return openFile(t, path, indexfile.PageFileOptions{}) }},
		{"readat", func(t *testing.T) storage.PageStore {
			return openFile(t, path, indexfile.PageFileOptions{DisableMmap: true})
		}},
		{"fault-over-mmap", func(t *testing.T) storage.PageStore {
			fs, err := storage.NewFaultStore(openFile(t, path, indexfile.PageFileOptions{}), 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.store(t)
			m, err := newSerial(1, st, ix, NewLRU())
			if err != nil {
				t.Fatal(err)
			}
			fa := get(t, m, a)
			arr := &fa.Data()[0]
			m.Unpin(fa)
			fb := get(t, m, b)
			if &fb.Data()[0] != arr {
				t.Error("page B did not reuse the entries of page A, the frame it evicted")
			}
			if !reflect.DeepEqual(fb.Data(), pages[b]) {
				t.Error("page B's entries differ from the page")
			}
			if fa.Data() != nil {
				t.Error("the evicted frame still holds entries")
			}
			m.Unpin(fb)

			next := a
			allocs := testing.AllocsPerRun(100, func() {
				f, missed, err := fetch(m, next)
				if err != nil || !missed {
					t.Fatalf("fetch %d: missed %v, err %v", next, missed, err)
				}
				m.Unpin(f)
				next = a + b - next
			})
			if allocs != 1 {
				t.Errorf("%v allocations per miss, want 1 (the Frame)", allocs)
			}
			if s := m.Stats(); s.Misses != st.Reads() {
				t.Errorf("misses %d != store reads %d", s.Misses, st.Reads())
			}
		})
	}
}

// mixedStore decodes the pages of even terms into the caller's dst
// (owned, as a FileStore would) and serves the others' pages shared, as
// the simulator does: a pool that recycled a shared page would copy an
// even term's page over it.
type mixedStore struct {
	ix    *postings.Index
	pages [][]postings.Entry
}

func (s mixedStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	entries, _, err := s.ReadInto(ctx, id, nil)
	return entries, err
}

func (s mixedStore) ReadInto(ctx context.Context, id postings.PageID, dst []postings.Entry) ([]postings.Entry, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if s.ix.TermOfPage(id)%2 == 1 {
		return s.pages[id], false, nil
	}
	return append(dst[:0], s.pages[id]...), true, nil
}

// TestSharedPagesNeverRecycled churns small 2-shard pools from several
// goroutines over stores that share their pages — the simulator, a
// fault layer over it, and a store that shares some pages and hands
// over others — and checks that every store page still equals its copy
// from before the run, and that every fetch saw its page.
func TestSharedPagesNeverRecycled(t *testing.T) {
	ix, pages := goldenIndex(t)
	want := clonePages(pages)
	for _, tc := range []struct {
		name  string
		store PageReader
	}{
		{"simulator", storage.NewStore(pages)},
		{"fault-over-simulator", func() PageReader {
			fs, err := storage.NewFaultStore(storage.NewStore(pages), 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			return fs
		}()},
		{"mixed", mixedStore{ix: ix, pages: pages}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range []string{"LRU", "RAP"} {
				mk, _ := PolicyFactory(name)
				m, err := NewManager(8, 2, tc.store, ix, mk)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 2000; i++ {
							id := postings.PageID((g*7919 + i*31) % ix.NumPagesTotal)
							f, err := pin(m, id)
							if err != nil {
								t.Error(err)
								return
							}
							if !reflect.DeepEqual(f.Data(), want[id]) {
								t.Errorf("%s: page %d: wrong entries", name, id)
							}
							m.Unpin(f)
						}
					}(g)
				}
				wg.Wait()
				if m.Stats().Evictions < 1000 {
					t.Fatalf("%s: only %d evictions", name, m.Stats().Evictions)
				}
			}
			for id := range pages {
				if !reflect.DeepEqual(pages[id], want[id]) {
					t.Fatalf("store page %d changed under the pool", id)
				}
			}
		})
	}
}

// TestCorruptPageIntoSpare: a page that passes its checksum but not the
// index's checks is decoded into the entries of the frame it evicted
// before the store rejects it. Only that load's frame is poisoned: the
// next fetch, which recycles nothing (the failed load kept no
// entries), delivers its page intact, and misses equal store reads.
func TestCorruptPageIntoSpare(t *testing.T) {
	ix, pages := goldenIndex(t)
	want := clonePages(pages)
	a, bad, b := ix.PageOf(0, 0), ix.PageOf(0, 1), ix.PageOf(0, 2)
	pages[bad][len(pages[bad])-1].Doc = postings.DocID(ix.NumDocs + 5)
	path := filepath.Join(t.TempDir(), "pages.bufir")
	if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
		t.Fatal(err)
	}
	st := openFile(t, path, indexfile.PageFileOptions{})
	m, err := newSerial(1, st, ix, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	touch(t, m, a)
	var corrupt *indexfile.CorruptPageError
	if _, err := pin(m, bad); !errors.As(err, &corrupt) || corrupt.Page != int(bad) {
		t.Fatalf("fetch of the corrupt page: %v, want its CorruptPageError", err)
	}
	if m.Contains(bad) || m.InUse() != 0 {
		t.Fatalf("the poisoned frame stayed: contains %v, %d in use", m.Contains(bad), m.InUse())
	}
	for _, id := range []postings.PageID{b, a, b} {
		f := get(t, m, id)
		if !reflect.DeepEqual(f.Data(), want[id]) {
			t.Errorf("page %d after the corrupt load: wrong entries", id)
		}
		m.Unpin(f)
	}
	if s := m.Stats(); s.Misses != 4 || s.Misses != st.Reads() {
		t.Errorf("misses %d, store reads %d; want 4 each", s.Misses, st.Reads())
	}
	if n := m.PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned at the end", n)
	}
}
