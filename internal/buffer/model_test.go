package buffer

import (
	"math/rand"
	"testing"

	"bufir/internal/postings"
)

// referenceLRU is an executable specification of LRU over page IDs.
type referenceLRU struct {
	capacity int
	order    []postings.PageID // front = most recent
}

func (m *referenceLRU) access(p postings.PageID) (evicted postings.PageID, hit, didEvict bool) {
	for i, q := range m.order {
		if q == p {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.order = append([]postings.PageID{p}, m.order...)
			return 0, true, false
		}
	}
	if len(m.order) >= m.capacity {
		evicted = m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		didEvict = true
	}
	m.order = append([]postings.PageID{p}, m.order...)
	return evicted, false, didEvict
}

func (m *referenceLRU) contains(p postings.PageID) bool {
	for _, q := range m.order {
		if q == p {
			return true
		}
	}
	return false
}

// TestLRUAgainstModel replays long random access traces and checks the
// manager's resident set and hit/miss accounting against the
// reference model exactly.
func TestLRUAgainstModel(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + r.Intn(6)
		mgr, err := newSerial(capacity, st, ix, NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		model := &referenceLRU{capacity: capacity}
		var hits, misses int64
		for op := 0; op < 400; op++ {
			p := postings.PageID(r.Intn(7))
			_, hit, _ := model.access(p)
			if hit {
				hits++
			} else {
				misses++
			}
			f, err := pin(mgr, p)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Unpin(f)
			// Resident sets agree after every operation.
			for q := postings.PageID(0); q < 7; q++ {
				if mgr.Contains(q) != model.contains(q) {
					t.Fatalf("trial %d op %d: Contains(%d) = %v, model %v",
						trial, op, q, mgr.Contains(q), model.contains(q))
				}
			}
		}
		s := mgr.Stats()
		if s.Hits != hits || s.Misses != misses {
			t.Fatalf("trial %d: stats (%d,%d), model (%d,%d)", trial, s.Hits, s.Misses, hits, misses)
		}
	}
}

// TestRAPAgainstLinearScan: RAP's heap-based victim selection must
// always pick the same victim a brute-force scan over (value, offset
// desc, page) would pick.
func TestRAPAgainstLinearScan(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		capacity := 2 + r.Intn(5)
		pol := NewRAP()
		mgr, err := newSerial(capacity, st, ix, pol)
		if err != nil {
			t.Fatal(err)
		}
		// Random query weights, re-keyed occasionally.
		setRandomQuery := func() {
			w := make(map[postings.TermID]float64, 3)
			for tm := postings.TermID(0); tm < 3; tm++ {
				if r.Intn(2) == 0 {
					w[tm] = float64(1 + r.Intn(5))
				}
			}
			mgr.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
		}
		setRandomQuery()
		for op := 0; op < 300; op++ {
			if r.Intn(25) == 0 {
				setRandomQuery()
			}
			// Before a potential eviction, compute the brute-force
			// victim from the heap's own contents.
			if len(pol.pq.frames) >= capacity {
				want := bruteVictim(pol.pq.frames)
				got := pol.Victim()
				if got != want {
					t.Fatalf("trial %d op %d: heap victim page %d, brute-force %d",
						trial, op, got.Page, want.Page)
				}
			}
			p := postings.PageID(r.Intn(7))
			f, err := pin(mgr, p)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Unpin(f)
		}
	}
}

// bruteVictim selects the min-(value, offset desc, page) frame.
func bruteVictim(frames []*Frame) *Frame {
	var best *Frame
	for _, f := range frames {
		if f.Pinned() {
			continue
		}
		if best == nil {
			best = f
			continue
		}
		if f.value != best.value {
			if f.value < best.value {
				best = f
			}
			continue
		}
		if f.Offset != best.Offset {
			if f.Offset > best.Offset {
				best = f
			}
			continue
		}
		if f.Page < best.Page {
			best = f
		}
	}
	return best
}

// TestShardedManagerProperties replays random traces with pins held
// across operations against a multi-shard Manager and checks its invariants
// after every step: the resident union never exceeds capacity, pinned
// pages are never evicted, b_t always equals a brute-force recount of
// buffered pages, and the hit/miss ledger balances the fetch count.
func TestShardedManagerProperties(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(777))
	factories := make([]func(int) Policy, 0, len(PolicyNames))
	for _, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		factories = append(factories, mk)
	}
	for trial := 0; trial < 30; trial++ {
		nshards := 1 + r.Intn(4)
		capacity := nshards + r.Intn(7-nshards+1)
		mgr, err := NewManager(capacity, nshards, st, ix, factories[trial%len(factories)])
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetQuery(func(tm postings.TermID) float64 { return float64(tm + 1) })
		var held []*Frame
		var fetches, noVictims int64
		for op := 0; op < 400; op++ {
			switch {
			case len(held) > 0 && r.Intn(3) == 0:
				// Release a random held pin.
				i := r.Intn(len(held))
				mgr.Unpin(held[i])
				held = append(held[:i], held[i+1:]...)
			default:
				p := postings.PageID(r.Intn(7))
				f, _, err := fetch(mgr, p)
				if err == ErrNoVictim {
					noVictims++ // every frame of p's shard is pinned: legal
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				fetches++
				if r.Intn(2) == 0 && len(held) < capacity-1 {
					held = append(held, f)
				} else {
					mgr.Unpin(f)
				}
			}

			if got := mgr.InUse(); got > capacity {
				t.Fatalf("trial %d op %d: InUse %d > capacity %d", trial, op, got, capacity)
			}
			occ := mgr.ShardOccupancy()
			if len(occ) != nshards {
				t.Fatalf("trial %d op %d: %d occupancy entries for %d shards", trial, op, len(occ), nshards)
			}
			occSum := 0
			for _, n := range occ {
				occSum += n
			}
			if occSum != mgr.InUse() {
				t.Fatalf("trial %d op %d: shard occupancy sums to %d, InUse %d", trial, op, occSum, mgr.InUse())
			}
			for _, f := range held {
				if !mgr.Contains(f.Page) {
					t.Fatalf("trial %d op %d: pinned page %d was evicted", trial, op, f.Page)
				}
			}
			for tm := postings.TermID(0); tm < postings.TermID(len(ix.Terms)); tm++ {
				brute := 0
				for i := 0; i < ix.Terms[tm].NumPages; i++ {
					if mgr.Contains(ix.Terms[tm].FirstPage + postings.PageID(i)) {
						brute++
					}
				}
				if got := mgr.ResidentPages(tm); got != brute {
					t.Fatalf("trial %d op %d: b_%d = %d, brute-force %d", trial, op, tm, got, brute)
				}
			}
		}
		s := mgr.Stats()
		if s.Hits+s.Misses != fetches {
			t.Fatalf("trial %d: hits %d + misses %d != %d successful fetches", trial, s.Hits, s.Misses, fetches)
		}
		for _, f := range held {
			mgr.Unpin(f)
		}
	}
}

// TestSingleShardReplaysSerialManager: the one-shard pool under
// single-threaded access must stay bit-for-bit the serial manager it
// replaced — same resident set, same per-term b_t, same
// hit/miss/eviction counters — on arbitrary traces over every policy.
// The deleted serial manager's side of this comparison is pinned as
// the counters it produced and a running FNV-1a signature of the
// resident set and b_t after every operation. This is the equivalence
// every serial experiment number rests on.
func TestSingleShardReplaysSerialManager(t *testing.T) {
	want := []struct {
		policy string
		stats  Stats // summed over the ten trials
		sig    uint64
	}{
		{"LRU", Stats{Hits: 1984, Misses: 2016, Evictions: 1815}, 0xe483b75d64f100d0},
		{"MRU", Stats{Hits: 2164, Misses: 1836, Evictions: 1648}, 0xb2d26d5ddf4c603f},
		{"RAP", Stats{Hits: 2490, Misses: 1510, Evictions: 1295}, 0x90f66a851f87e3a9},
		{"LRU-2", Stats{Hits: 1663, Misses: 2337, Evictions: 2223}, 0x10b39cfc3712532c},
		{"2Q", Stats{Hits: 1996, Misses: 2004, Evictions: 1820}, 0x9ed60ba411d36ff0},
		{"ADAPTIVE", Stats{Hits: 1396, Misses: 2604, Evictions: 2473}, 0x29fade70c66eba52},
	}
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(4242))
	for i, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		var total Stats
		sig := uint64(14695981039346656037)
		mix := func(v uint64) { sig = (sig ^ v) * 1099511628211 }
		for trial := 0; trial < 10; trial++ {
			capacity := 1 + r.Intn(6)
			mgr, err := NewManager(capacity, 1, st, ix, mk)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 400; op++ {
				if r.Intn(40) == 0 {
					w := make(map[postings.TermID]float64, 3)
					for tm := postings.TermID(0); tm < 3; tm++ {
						w[tm] = float64(r.Intn(5))
					}
					mgr.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
				}
				if r.Intn(80) == 0 {
					mgr.Flush()
				}
				f, err := pin(mgr, postings.PageID(r.Intn(7)))
				if err != nil {
					t.Fatal(err)
				}
				mgr.Unpin(f)
				for q := postings.PageID(0); q < 7; q++ {
					if mgr.Contains(q) {
						mix(uint64(q) + 1)
					}
				}
				for tm := postings.TermID(0); tm < 3; tm++ {
					mix(uint64(mgr.ResidentPages(tm)))
				}
			}
			s := mgr.Stats()
			total.Hits += s.Hits
			total.Misses += s.Misses
			total.Evictions += s.Evictions
		}
		if want[i].policy != name {
			t.Fatalf("table row %d is %s, PolicyNames says %s", i, want[i].policy, name)
		}
		if total != want[i].stats || sig != want[i].sig {
			t.Errorf("%s: stats %+v sig %#x, want %+v sig %#x", name, total, sig, want[i].stats, want[i].sig)
		}
	}
}

// TestRAPHeapIndicesConsistent: after arbitrary operations every
// frame's heapIdx must point at itself (the container/heap contract
// the Remove path depends on).
func TestRAPHeapIndicesConsistent(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewRAP()
	mgr, _ := newSerial(3, st, ix, pol)
	r := rand.New(rand.NewSource(9))
	mgr.SetQuery(func(tm postings.TermID) float64 { return float64(tm + 1) })
	for op := 0; op < 500; op++ {
		p := postings.PageID(r.Intn(7))
		f, err := pin(mgr, p)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Unpin(f)
		if op%50 == 0 {
			mgr.SetQuery(func(tm postings.TermID) float64 { return float64(r.Intn(4)) })
		}
		for i, fr := range pol.pq.frames {
			if fr.heapIdx != i {
				t.Fatalf("op %d: frame %d has heapIdx %d at position %d", op, fr.Page, fr.heapIdx, i)
			}
		}
	}
}
