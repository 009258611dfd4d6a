package buffer

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir/internal/indexfile"
	"bufir/internal/livedex"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// The tests in this file cover recycling: a miss that evicts re-labels
// the victim's Frame as the new page's, and decodes the page into the
// victim's entries when the store hands over what it decodes
// (storage.IntoReader), never when it shares them.

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
// either access path, bare or under a fault layer — page B evicts page
// A into A's own Frame, its entries occupy the array A's held, and a
// steady-state miss allocates nothing.
func TestEvictionRecyclesEntries(t *testing.T) {
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
			if fb != fa || fb.Page != b {
				t.Errorf("page B got frame %p for page %d, want page A's frame %p", fb, fb.Page, fa)
			}
			if &fb.Data()[0] != arr {
				t.Error("page B did not reuse the entries of page A, the frame it evicted")
			}
			if !reflect.DeepEqual(fb.Data(), pages[b]) {
				t.Error("page B's entries differ from the page")
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
			if allocs != 0 {
				t.Errorf("%v allocations per miss, want 0", allocs)
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
// before the store rejects it. Only that load is poisoned: the next
// fetch takes the failed frame off the free list and decodes into the
// same entries, its page arrives intact, and misses equal store reads.
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

// TestWarmMissAllocatesNothing: on a full 2-shard pool, warmed until
// every frame has been allocated, a miss that evicts — FetchContext and
// Unpin — allocates nothing, over the simulator, over an mmap'd
// FileStore and over a live commit's store, under each product policy.
// The live row's misses all land on pages of terms the commit touched,
// the pages a live index has merged.
func TestWarmMissAllocatesNothing(t *testing.T) {
	path, ix, pages := goldenFile(t)
	all := make([]postings.PageID, ix.NumPagesTotal)
	for i := range all {
		all[i] = postings.PageID(i)
	}
	liveIx, liveStore, touched := liveCommit(t, ix, pages)
	for _, tc := range []struct {
		name  string
		store PageReader
		ix    *postings.Index
		ids   []postings.PageID
	}{
		{"simulator", storage.NewStore(pages), ix, all},
		{"mmap", openFile(t, path, indexfile.PageFileOptions{}), ix, all},
		{"live-commit", liveStore, liveIx, touched},
	} {
		for _, name := range PolicyNames {
			mk, _ := PolicyFactory(name)
			m, err := NewManager(4, 2, tc.store, tc.ix, mk)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			next := 0
			cycle := func() {
				id := tc.ids[next%len(tc.ids)]
				next++
				f, _, err := m.FetchContext(ctx, id)
				if err != nil {
					t.Fatalf("%s/%s: fetch %d: %v", tc.name, name, id, err)
				}
				m.Unpin(f)
			}
			for range 2 * len(tc.ids) {
				cycle()
			}
			// One run of a 200-fetch batch, after a warm-up batch:
			// AllocsPerRun truncates its mean to an integer, so per fetch
			// it would read 0 while fewer than every fetch allocates.
			batch := func() {
				for range 200 {
					cycle()
				}
			}
			before := m.Stats()
			if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
				t.Errorf("%s/%s: %v allocations in 200 warm fetches, want 0", tc.name, name, allocs)
			}
			if s := m.Stats(); s.Evictions-before.Evictions < 300 {
				t.Errorf("%s/%s: only %d of the 400 fetches evicted", tc.name, name, s.Evictions-before.Evictions)
			}
		}
	}
}

// liveCommit makes ix a live index's main generation, adds two
// documents that touch two of its long lists, and returns the commit's
// metadata and store — the ones a live index publishes — with the
// pages of the touched terms.
func liveCommit(t *testing.T, ix *postings.Index, pages [][]postings.Entry) (*postings.Index, PageReader, []postings.PageID) {
	t.Helper()
	s, err := livedex.NewState(ix, storage.NewStore(pages), pages)
	if err != nil {
		t.Fatal(err)
	}
	for _, counts := range []map[string]int{{"long00": 9, "long01": 2}, {"long00": 1, "long01": 7}} {
		if _, err := s.AddDoc("added", counts); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	var touched []postings.PageID
	for term, tm := range c.Meta.Terms {
		if tm.DF != ix.Terms[term].DF {
			for i := 0; i < tm.NumPages; i++ {
				touched = append(touched, tm.FirstPage+postings.PageID(i))
			}
		}
	}
	if len(touched) < 16 {
		t.Fatalf("the commit touched %d pages, too few to miss on every fetch", len(touched))
	}
	return c.Meta, livedex.NewOverlay(c, s.MainIndex(), s.MainStore()), touched
}

// TestRecycledFramesHoldTheirPage churns 2-shard pools of four frames
// over many more pages from sixteen goroutines (run under -race), so
// frames are re-labelled under hits that found them for their previous
// page, and failed loads (a transient fault schedule, no retries) pass
// through the free list. Every frame a fetch returns carries the page
// asked for, with that page's term, offset and entries, and holds still
// until it is unpinned.
func TestRecycledFramesHoldTheirPage(t *testing.T) {
	path, ix, pages := goldenFile(t)
	want := clonePages(pages)
	for _, backend := range []struct {
		name string
		open func(t *testing.T) storage.PageStore
	}{
		{"simulator", func(*testing.T) storage.PageStore { return storage.NewStore(pages) }},
		{"mmap", func(t *testing.T) storage.PageStore { return openFile(t, path, indexfile.PageFileOptions{}) }},
	} {
		for _, name := range []string{"RAP", "LRU"} {
			t.Run(backend.name+"/"+name, func(t *testing.T) {
				rules, err := storage.ParseFaultSchedule("transient:prob=0.02")
				if err != nil {
					t.Fatal(err)
				}
				fs, err := storage.NewFaultStore(backend.open(t), 5, rules)
				if err != nil {
					t.Fatal(err)
				}
				mk, _ := PolicyFactory(name)
				m, err := NewManager(4, 2, fs, ix, mk)
				if err != nil {
					t.Fatal(err)
				}
				m.SetRetryPolicy(RetryPolicy{VictimWait: time.Second})
				var wg sync.WaitGroup
				var failed atomic.Int64
				for g := 0; g < 16; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(g)))
						for i := 0; i < 1000; i++ {
							// Half the fetches go to six hot pages, so hits race
							// the evictions of their frames.
							id := postings.PageID(r.Intn(ix.NumPagesTotal))
							if r.Intn(2) == 0 {
								id = postings.PageID(r.Intn(6))
							}
							f, _, err := m.FetchContext(context.Background(), id)
							if err != nil {
								failed.Add(1)
								continue
							}
							if f.Page != id || f.Term != ix.TermOfPage(id) || f.Offset != ix.PageOffset(id) || !reflect.DeepEqual(f.Data(), want[id]) {
								t.Errorf("fetch of page %d returned page %d (term %d, offset %d) with %d entries", id, f.Page, f.Term, f.Offset, len(f.Data()))
							}
							if f.Page != id || !reflect.DeepEqual(f.Data(), want[id]) {
								t.Errorf("page %d's frame changed while pinned", id)
							}
							m.Unpin(f)
						}
					}(g)
				}
				wg.Wait()
				if failed.Load() == 0 {
					t.Error("no load failed: the free list went untested")
				}
				if n := m.PinnedFrames(); n != 0 {
					t.Errorf("%d frames pinned at quiescence", n)
				}
				if s := m.Stats(); s.Misses != fs.Reads() || s.Evictions < 1000 {
					t.Errorf("%+v: misses != store reads %d, or too few evictions", s, fs.Reads())
				}
			})
		}
	}
}

// TestStatsSumFetchOutcomes: after concurrent fetches on a 2-shard pool
// (run under -race, with Stats read while they run), Stats equals what
// the fetches reported — every hit and miss, and an eviction for every
// miss past the frames left in use.
func TestStatsSumFetchOutcomes(t *testing.T) {
	ix, pages := goldenIndex(t)
	for _, name := range PolicyNames {
		mk, _ := PolicyFactory(name)
		m, err := NewManager(6, 2, storage.NewStore(pages), ix, mk)
		if err != nil {
			t.Fatal(err)
		}
		m.SetRetryPolicy(RetryPolicy{VictimWait: time.Second})
		var hits, misses atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 1000; i++ {
					f, missed, err := fetch(m, postings.PageID(r.Intn(12)))
					if err != nil {
						t.Error(err)
						return
					}
					if missed {
						misses.Add(1)
					} else {
						hits.Add(1)
					}
					m.Unpin(f)
					if i%100 == 0 {
						m.Stats()
					}
				}
			}(g)
		}
		wg.Wait()
		want := Stats{Hits: hits.Load(), Misses: misses.Load(), Evictions: misses.Load() - int64(m.InUse())}
		if got := m.Stats(); got != want {
			t.Errorf("%s: Stats %+v, the fetches report %+v", name, got, want)
		}
	}
}
