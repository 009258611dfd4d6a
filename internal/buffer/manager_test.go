package buffer

import (
	"context"
	"errors"
	"sync"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// testEnv builds a small index/store: term 0 "long" with 4 pages,
// term 1 "short" with 2 pages, term 2 "tiny" with 1 page. Frequencies
// descend within lists so w* values descend along each list.
func testEnv(t *testing.T) (*postings.Index, *storage.Store) {
	t.Helper()
	mk := func(n int, base int32) []postings.Entry {
		entries := make([]postings.Entry, n)
		for i := range entries {
			entries[i] = postings.Entry{Doc: postings.DocID(i), Freq: base - int32(i)}
		}
		return entries
	}
	lists := []postings.TermPostings{
		{Name: "long", Entries: mk(8, 20)},  // 4 pages @ pageSize 2
		{Name: "short", Entries: mk(4, 10)}, // 2 pages
		{Name: "tiny", Entries: mk(2, 5)},   // 1 page
	}
	ix, pages, err := postings.Build(lists, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ix, storage.NewStore(pages)
}

// newSerial builds the one-shard pool — the serial, reproducible
// manager every experiment runs on — around one policy instance.
func newSerial(capacity int, store PageReader, ix *postings.Index, pol Policy) (*Manager, error) {
	return NewManager(capacity, 1, store, ix, func(int) Policy { return pol })
}

// fetch is FetchContext under a background context.
func fetch(p Pool, id postings.PageID) (*Frame, bool, error) {
	return p.FetchContext(context.Background(), id)
}

// pin is fetch without the miss report.
func pin(p Pool, id postings.PageID) (*Frame, error) {
	f, _, err := fetch(p, id)
	return f, err
}

// residentFrames snapshots every shard's frame table, one latch at a
// time.
func residentFrames(m *Manager) map[postings.PageID]*Frame {
	out := make(map[postings.PageID]*Frame)
	for i := range m.shards {
		for p, f := range shardFrames(&m.shards[i]) {
			out[p] = f
		}
	}
	return out
}

// shardFrames snapshots one shard's frame table under its latch.
func shardFrames(sh *shard) map[postings.PageID]*Frame {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[postings.PageID]*Frame, sh.frames.n)
	for j := range sh.frames.slots {
		if f := sh.frames.slots[j].Load(); f != nil {
			out[f.Page] = f
		}
	}
	return out
}

func get(t *testing.T, m *Manager, p postings.PageID) *Frame {
	t.Helper()
	f, err := pin(m, p)
	if err != nil {
		t.Fatalf("fetch(%d): %v", p, err)
	}
	return f
}

// touch pins and immediately unpins a page (the evaluator's pattern).
func touch(t *testing.T, m *Manager, p postings.PageID) {
	t.Helper()
	m.Unpin(get(t, m, p))
}

func TestManagerHitsMissesResidents(t *testing.T) {
	ix, st := testEnv(t)
	m, err := newSerial(3, st, ix, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	touch(t, m, 0)
	touch(t, m, 0)
	touch(t, m, 1)
	s := m.Stats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses 1 hit", s)
	}
	if got := m.ResidentPages(0); got != 2 {
		t.Errorf("ResidentPages(long) = %d, want 2", got)
	}
	if got := m.ResidentPages(1); got != 0 {
		t.Errorf("ResidentPages(short) = %d, want 0", got)
	}
	if !m.Contains(0) || m.Contains(5) {
		t.Error("Contains wrong")
	}
	if m.InUse() != 2 {
		t.Errorf("InUse = %d", m.InUse())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRU())
	touch(t, m, 0)
	touch(t, m, 1)
	touch(t, m, 0) // page 0 now most recent
	touch(t, m, 2) // evicts page 1 (least recently used)
	if !m.Contains(0) || m.Contains(1) || !m.Contains(2) {
		t.Errorf("LRU evicted wrong page: contains 0=%v 1=%v 2=%v",
			m.Contains(0), m.Contains(1), m.Contains(2))
	}
	if m.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", m.Stats().Evictions)
	}
}

func TestMRUEvictionOrder(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewMRU())
	touch(t, m, 0)
	touch(t, m, 1) // page 1 most recent
	touch(t, m, 2) // MRU evicts page 1
	if !m.Contains(0) || m.Contains(1) || !m.Contains(2) {
		t.Errorf("MRU evicted wrong page: contains 0=%v 1=%v 2=%v",
			m.Contains(0), m.Contains(1), m.Contains(2))
	}
}

// TestMRUKeepsDroppedTermPages reproduces the paper's §5.3
// observation: pages of dropped terms are never the most recently
// used, so MRU is guaranteed to keep them — its failure mode on
// ADD-DROP workloads.
func TestMRUKeepsDroppedTermPages(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(3, st, ix, NewMRU())
	// "Query 1" touches term 1's pages (4, 5).
	touch(t, m, 4)
	touch(t, m, 5)
	// "Query 2" drops term 1 and scans term 0: each new page evicts
	// the most recently used — never the stale pages 4 and 5.
	for p := postings.PageID(0); p < 4; p++ {
		touch(t, m, p)
	}
	if !m.Contains(4) || !m.Contains(5) {
		t.Error("MRU should have kept the dropped term's (useless) pages")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	for _, pol := range []Policy{NewLRU(), NewMRU(), NewRAP()} {
		ix, st := testEnv(t)
		m, _ := newSerial(2, st, ix, pol)
		f0 := get(t, m, 0)
		f1 := get(t, m, 1)
		// Pool full, everything pinned: must refuse.
		if _, err := pin(m, 2); !errors.Is(err, ErrNoVictim) {
			t.Errorf("%s: fetch with all pinned = %v, want ErrNoVictim", pol.Name(), err)
		}
		m.Unpin(f1)
		// Now page 1 is evictable.
		touch(t, m, 2)
		if !m.Contains(0) || m.Contains(1) {
			t.Errorf("%s: evicted a pinned page", pol.Name())
		}
		m.Unpin(f0)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRU())
	f := get(t, m, 0)
	m.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	m.Unpin(f)
}

func TestFlush(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(4, st, ix, NewLRU())
	touch(t, m, 0)
	touch(t, m, 4)
	m.Flush()
	if m.InUse() != 0 || m.Contains(0) {
		t.Error("flush left pages resident")
	}
	if m.ResidentPages(0) != 0 || m.ResidentPages(1) != 0 {
		t.Error("flush left resident counts")
	}
	// Reload works after flush.
	touch(t, m, 0)
	if !m.Contains(0) {
		t.Error("reload after flush failed")
	}
}

func TestFlushPinnedPanics(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewLRU())
	_ = get(t, m, 0)
	defer func() {
		if recover() == nil {
			t.Error("flush with pinned page should panic")
		}
	}()
	m.Flush()
}

func TestRAPEvictsLowestValue(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(3, st, ix, NewRAP())
	// Query uses term 0 only: term 1 pages are worthless (w_qt = 0).
	m.SetQuery(QueryWeights{0: 1})
	touch(t, m, 0) // term 0, w* high
	touch(t, m, 1) // term 0, lower w*
	touch(t, m, 4) // term 1, value 0
	touch(t, m, 2) // needs eviction: the value-0 page 4 must go
	if m.Contains(4) {
		t.Error("RAP kept a zero-value page over in-query pages")
	}
	if !m.Contains(0) || !m.Contains(1) {
		t.Error("RAP evicted an in-query page")
	}
}

// TestRAPFirstPagesStay: pages at the head of a list have higher w*
// (frequency-sorted), so the tail is evicted first — the paper's
// example 1 in §3.3.
func TestRAPFirstPagesStay(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(3, st, ix, NewRAP())
	m.SetQuery(QueryWeights{0: 1, 1: 1, 2: 1})
	touch(t, m, 0)
	touch(t, m, 1)
	touch(t, m, 2)
	touch(t, m, 3) // evicts page 2 (lowest w* among 0,1,2)
	if m.Contains(2) || !m.Contains(0) || !m.Contains(1) {
		t.Errorf("RAP should evict the tail page: contains 0=%v 1=%v 2=%v 3=%v",
			m.Contains(0), m.Contains(1), m.Contains(2), m.Contains(3))
	}
}

// TestRAPDroppedTermTailFirst: among equal-value (dropped) pages, the
// tail of the list goes before the head.
func TestRAPDroppedTermTailFirst(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewRAP())
	m.SetQuery(QueryWeights{0: 1, 1: 1, 2: 1})
	touch(t, m, 4) // term 1 page 0
	touch(t, m, 5) // term 1 page 1
	// Re-key: term 1 dropped — both pages now value 0.
	m.SetQuery(QueryWeights{})
	touch(t, m, 0) // one eviction: page 5 (higher offset) must go first
	if m.Contains(5) || !m.Contains(4) {
		t.Errorf("tail-before-head violated: contains 4=%v 5=%v", m.Contains(4), m.Contains(5))
	}
}

// TestRAPSetQueryRekeys: a page that was worthless becomes valuable
// when the next query includes its term.
func TestRAPSetQueryRekeys(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(2, st, ix, NewRAP())
	m.SetQuery(QueryWeights{0: 1})
	touch(t, m, 4) // term 1: value 0
	touch(t, m, 0) // term 0: valuable
	// New query: term 1 now matters, term 0 dropped.
	m.SetQuery(QueryWeights{1: 1})
	touch(t, m, 5) // should evict page 0 (term 0, now value 0)
	if m.Contains(0) || !m.Contains(4) || !m.Contains(5) {
		t.Errorf("re-keying failed: contains 0=%v 4=%v 5=%v",
			m.Contains(0), m.Contains(4), m.Contains(5))
	}
}

func TestManagerValidation(t *testing.T) {
	ix, st := testEnv(t)
	if _, err := newSerial(0, st, ix, NewLRU()); err == nil {
		t.Error("capacity 0 should fail")
	}
	if _, err := newSerial(2, st, ix, nil); err == nil {
		t.Error("nil policy should fail")
	}
	if _, err := NewManager(2, 1, st, ix, nil); err == nil {
		t.Error("nil policy factory should fail")
	}
	if _, err := NewManager(2, 3, st, ix, func(int) Policy { return NewLRU() }); err == nil {
		t.Error("capacity below the shard count should fail")
	}
}

func TestManagerPropagatesReadErrors(t *testing.T) {
	ix, st := testEnv(t)
	// Page 0's first read fails, then the page heals.
	fs, err := storage.NewFaultStore(st, 1, []storage.FaultRule{
		{Kind: storage.FaultTransient, FirstPage: 0, LastPage: 0, First: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := newSerial(4, fs, ix, NewLRU())
	if _, err := pin(m, 0); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("err = %v, want the injected fault to propagate", err)
	}
	// The failed page must not be resident or counted.
	if m.Contains(0) || m.InUse() != 0 || m.ResidentPages(0) != 0 || m.Stats().Misses != 0 {
		t.Error("failed load left residue in the pool")
	}
	touch(t, m, 0) // recovery after the fault clears
	if !m.Contains(0) {
		t.Error("manager did not recover after fault cleared")
	}
}

// TestManagerConcurrent hammers fetch/Unpin from several goroutines to
// exercise the locking (run with -race).
func TestManagerConcurrent(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(3, st, ix, NewLRU())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				p := postings.PageID((w*7 + i) % 7)
				f, err := pin(m, p)
				if err != nil {
					// ErrNoVictim is possible if all 3 frames are
					// momentarily pinned by other goroutines.
					if errors.Is(err, ErrNoVictim) {
						continue
					}
					t.Errorf("fetch: %v", err)
					return
				}
				if f.Page != p {
					t.Errorf("frame for %d has page %d", p, f.Page)
					m.Unpin(f)
					return
				}
				m.Unpin(f)
			}
		}(w)
	}
	wg.Wait()
	st2 := m.Stats()
	if st2.Hits+st2.Misses == 0 {
		t.Error("no traffic recorded")
	}
}

// TestEvictionCountsConsistent: misses - evictions = resident pages.
func TestEvictionCountsConsistent(t *testing.T) {
	ix, st := testEnv(t)
	for _, pol := range []Policy{NewLRU(), NewMRU(), NewRAP()} {
		m, _ := newSerial(3, st, ix, pol)
		m.SetQuery(QueryWeights{0: 1, 1: 1, 2: 1})
		for i := 0; i < 50; i++ {
			touch(t, m, postings.PageID(i%7))
		}
		s := m.Stats()
		if int(s.Misses-s.Evictions) != m.InUse() {
			t.Errorf("%s: misses %d - evictions %d != in-use %d",
				pol.Name(), s.Misses, s.Evictions, m.InUse())
		}
		total := 0
		for tm := range ix.Terms {
			total += m.ResidentPages(postings.TermID(tm))
		}
		if total != m.InUse() {
			t.Errorf("%s: resident sum %d != in-use %d", pol.Name(), total, m.InUse())
		}
	}
}
