package buffer

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// benchIndex is a collection large enough to fill the largest pool of
// BenchmarkPolicyOps: 3 000 terms, lists of 1 to 58 pages of two
// entries, 40 000-odd pages. Built once.
var benchIndex = sync.OnceValues(func() (*postings.Index, [][]postings.Entry) {
	const numDocs = 200
	lists := make([]postings.TermPostings, 3000)
	for i := range lists {
		n := 2 * (1 + (i*37)%58)
		entries := make([]postings.Entry, n)
		for j := range entries {
			entries[j] = postings.Entry{Doc: postings.DocID(j), Freq: int32(1 + (n-j)/4)}
		}
		lists[i] = postings.TermPostings{Name: fmt.Sprintf("t%04d", i), Entries: entries}
	}
	ix, pages, err := postings.Build(lists, numDocs, 2)
	if err != nil {
		panic(err)
	}
	return ix, pages
})

// BenchmarkPolicyOps prices the four policy calls the buffer manager
// makes, per product policy (PolicyNames) × pool size × registered
// users, on a full one-shard pool:
//
//   - SetQuery: one user's announcement of a 30-term query that differs
//     from its previous one in one term (a refinement step), through
//     the registry and the policy — the private pool's Manager.SetQuery
//     with one user, a UserView among sixteen otherwise;
//   - Victim with no frame pinned, and with the two frames the policy
//     would evict first pinned;
//   - Admitted followed by Removed of one frame (a failed load's
//     footprint; an eviction's bookkeeping without the map and atomics
//     of the manager).
//
// The outside-in trace of the repository benchmark reports these as
// parts of buffer.setquery_us and buffer.miss_self_ns; here they are
// separated and swept over pool sizes the workloads do not reach.
// make bench-policyops runs it.
func BenchmarkPolicyOps(b *testing.B) {
	ix, pages := benchIndex()
	store := storage.NewStore(pages)
	for _, name := range PolicyNames {
		mk, _ := PolicyFactory(name)
		for _, capacity := range []int{512, 4096, 32768} {
			for _, nusers := range []int{1, 16} {
				prefix := fmt.Sprintf("%s/pool%d/users%d/", name, capacity, nusers)
				var env *policyBenchEnv
				setup := func(b *testing.B) *policyBenchEnv {
					if env == nil {
						env = newPolicyBenchEnv(b, ix, store, mk, capacity, nusers)
					}
					b.ReportAllocs()
					b.ResetTimer()
					return env
				}
				b.Run(prefix+"SetQuery", func(b *testing.B) {
					e := setup(b)
					for i := 0; i < b.N; i++ {
						e.announce(e.step[i&1])
					}
				})
				b.Run(prefix+"Victim/pinned0", func(b *testing.B) {
					e := setup(b)
					for i := 0; i < b.N; i++ {
						benchFrame = e.pol.Victim()
					}
				})
				b.Run(prefix+"Victim/pinned2", func(b *testing.B) {
					e := setup(b)
					first := e.pol.Victim()
					first.pin.Add(1)
					second := e.pol.Victim()
					second.pin.Add(1)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						benchFrame = e.pol.Victim()
					}
					first.pin.Add(-1)
					second.pin.Add(-1)
				})
				b.Run(prefix+"AdmittedRemoved", func(b *testing.B) {
					e := setup(b)
					for i := 0; i < b.N; i++ {
						e.pol.Admitted(e.spare)
						e.pol.Removed(e.spare)
					}
				})
			}
		}
	}
}

var benchFrame *Frame

// policyBenchEnv is a full one-shard pool whose users have 30-term
// queries registered, and the two queries user 0 alternates between.
type policyBenchEnv struct {
	pol      Policy
	announce func(QueryWeights)
	step     [2]QueryWeights
	spare    *Frame // a page that is not resident
}

func newPolicyBenchEnv(b *testing.B, ix *postings.Index, store PageReader, mk func(int) Policy, capacity, nusers int) *policyBenchEnv {
	b.Helper()
	sp, err := NewShardedSharedPool(capacity, 1, store, ix, mk)
	if err != nil {
		b.Fatal(err)
	}
	mgr := sp.Manager()
	e := &policyBenchEnv{pol: mgr.shards[0].policy}
	// User u's query: 29 of the first 160 terms, so neighbouring users
	// share terms and most of them have pages resident, plus one term
	// nobody else holds. User 0's refinement step changes that term's
	// weight.
	query := func(u, fqt int) QueryWeights {
		w := make(QueryWeights, 30)
		for k := 0; k < 29; k++ {
			tm := postings.TermID(10 + (u*7+k*5)%150)
			w[tm] = float64(1+k%3) * ix.IDF(tm)
		}
		own := postings.TermID(1 + u%9)
		w[own] = float64(fqt) * ix.IDF(own)
		return w
	}
	if nusers == 1 {
		e.announce = mgr.SetQuery
	} else {
		e.announce = sp.UserView(0).SetQuery
		for u := 1; u < nusers; u++ {
			sp.UserView(u).SetQuery(query(u, 1))
		}
	}
	e.step = [2]QueryWeights{query(0, 1), query(0, 2)}
	e.announce(e.step[1])
	// Fill the pool with the first lists, user 0's own term among them.
	for p := 0; mgr.InUse() < capacity; p++ {
		f, _, err := fetch(mgr, postings.PageID(p))
		if err != nil {
			b.Fatal(err)
		}
		mgr.Unpin(f)
	}
	last := postings.PageID(ix.NumPagesTotal - 1)
	if mgr.Contains(last) {
		b.Fatal("the spare page is resident")
	}
	e.spare = &Frame{Page: last, Term: ix.TermOfPage(last), Offset: ix.PageOffset(last), WStar: ix.PageWStar(last)}
	return e
}

// BenchmarkFetch prices one FetchContext+Unpin pair on a 2-shard pool,
// per policy × access pattern × concurrent goroutines:
//
//   - hit: every page of a 64-page pool is resident, and each goroutine
//     cycles through them from its own starting point — the warm path
//     of a list scan whose pages the pool holds;
//   - miss: the goroutines share one cursor over the 40 000-odd pages of
//     the collection through a 64-page pool, so nearly every fetch
//     misses, evicts a victim and reads the page from the in-memory
//     simulator;
//   - file-miss: the same cursor over an mmap'd FileStore of the same
//     pages, so each miss also checksums and decodes the page — into
//     the entries of the frame it evicted.
//
// A miss re-labels the frame it evicts, so every row allocates
// nothing; a hit counts itself on the frame it pins, so the hit rows
// at -cpu 2 cost no more than at -cpu 1.
//
// The b.N operations are split evenly across the goroutines, so ns/op
// is wall time per fetch of the whole group: it falls with goroutines
// when fetches overlap and rises when they serialize on a latch.
// make bench-fetch runs it.
func BenchmarkFetch(b *testing.B) {
	ix, pages := benchIndex()
	path := filepath.Join(b.TempDir(), "pages.bufir")
	if err := indexfile.WritePageFile(path, ix, pages, nil); err != nil {
		b.Fatal(err)
	}
	file, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer file.Close()
	sim := storage.NewStore(pages)
	stores := map[string]PageReader{"hit": sim, "miss": sim, "file-miss": file}
	const capacity = 64
	for _, name := range []string{"LRU", "RAP"} {
		mk, err := PolicyFactory(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, pattern := range []string{"hit", "miss", "file-miss"} {
			for _, goroutines := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/g%d", name, pattern, goroutines), func(b *testing.B) {
					mgr, err := NewManager(capacity, 2, stores[pattern], ix, mk)
					if err != nil {
						b.Fatal(err)
					}
					for p := 0; p < capacity; p++ {
						f, _, err := fetch(mgr, postings.PageID(p))
						if err != nil {
							b.Fatal(err)
						}
						mgr.Unpin(f)
					}
					var cursor atomic.Int64
					page := func(g, i int) postings.PageID {
						if pattern == "hit" {
							return postings.PageID((g*capacity/goroutines + i) % capacity)
						}
						return postings.PageID((capacity + int(cursor.Add(1))) % ix.NumPagesTotal)
					}
					b.ReportAllocs()
					b.ResetTimer()
					var wg sync.WaitGroup
					for g := 0; g < goroutines; g++ {
						n := b.N / goroutines
						if g < b.N%goroutines {
							n++
						}
						wg.Add(1)
						go func(g, n int) {
							defer wg.Done()
							for i := 0; i < n; i++ {
								f, _, err := fetch(mgr, page(g, i))
								if err != nil {
									b.Error(err)
									return
								}
								mgr.Unpin(f)
							}
						}(g, n)
					}
					wg.Wait()
				})
			}
		}
	}
}
