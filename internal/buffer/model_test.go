package buffer

import (
	"math/rand"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
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

// TestRAPAgainstLinearScan: RAP's group/heap victim selection must
// always pick the frame a brute-force scan over (value, offset desc,
// page) picks, where the scan knows nothing of RAP's structures: it
// values each resident page from the index's w* and the highest weight
// any user's current query gives the page's term, and skips the pages
// the test itself holds pinned.
func TestRAPAgainstLinearScan(t *testing.T) {
	ix, pages := goldenIndex(t)
	st := storage.NewStore(pages)
	r := rand.New(rand.NewSource(321))
	// Fetches stay within a few long, medium and single-page lists so
	// that pages are re-referenced and values tie.
	terms := []postings.TermID{0, 1, 2, 3, 20, 21, 22, 23, 24, 60, 61, 62, 63, 64, 65}
	for trial := 0; trial < 30; trial++ {
		capacity := 2 + r.Intn(40)
		nusers := 1 + r.Intn(4)
		pol := NewRAP()
		sp, err := NewShardedSharedPool(capacity, 1, st, ix, func(int) Policy { return pol })
		if err != nil {
			t.Fatal(err)
		}
		mgr := sp.Manager()
		queries := make([]QueryWeights, nusers)
		var held []*Frame
		announce := func(u int) {
			if r.Intn(6) == 0 {
				queries[u] = nil
				sp.UserView(u).Close()
				return
			}
			w := make(QueryWeights)
			for n := r.Intn(6); n > 0; n-- {
				tm := terms[r.Intn(len(terms))]
				w[tm] = float64(r.Intn(4)) * ix.IDF(tm) // 0 now and then: a dropped term
			}
			queries[u] = w
			sp.UserView(u).SetQuery(w)
		}
		// before reports whether page p, valued vp, is evicted before q.
		before := func(p postings.PageID, vp float64, q postings.PageID, vq float64) bool {
			if vp != vq {
				return vp < vq
			}
			if ix.PageOffset(p) != ix.PageOffset(q) {
				return ix.PageOffset(p) > ix.PageOffset(q)
			}
			return p < q
		}
		bruteVictim := func() postings.PageID {
			best, bestValue := postings.PageID(-1), 0.0
			for p := postings.PageID(0); int(p) < ix.NumPagesTotal; p++ {
				if !mgr.Contains(p) {
					continue
				}
				pinned := false
				for _, f := range held {
					pinned = pinned || f.Page == p
				}
				if pinned {
					continue
				}
				weight := 0.0
				for _, q := range queries {
					if v := q[ix.TermOfPage(p)]; v > weight {
						weight = v
					}
				}
				value := ix.PageWStar(p) * weight
				if best >= 0 && !before(p, value, best, bestValue) {
					continue
				}
				best, bestValue = p, value
			}
			return best
		}
		for u := range queries {
			announce(u)
		}
		for op := 0; op < 500; op++ {
			switch {
			case r.Intn(12) == 0:
				announce(r.Intn(nusers))
			case len(held) > 0 && r.Intn(4) == 0:
				i := r.Intn(len(held))
				mgr.Unpin(held[i])
				held = append(held[:i], held[i+1:]...)
			default:
				if mgr.InUse() >= capacity {
					want := bruteVictim()
					got := postings.PageID(-1)
					if f := pol.Victim(); f != nil {
						got = f.Page
					}
					if got != want {
						t.Fatalf("trial %d op %d: victim page %d, brute-force %d", trial, op, got, want)
					}
				}
				tm := terms[r.Intn(len(terms))]
				p := ix.PageOf(tm, r.Intn(ix.Terms[tm].NumPages))
				f, _, err := fetch(mgr, p)
				if err == ErrNoVictim {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.Intn(8) == 0 && len(held) < 3 {
					held = append(held, f)
				} else {
					mgr.Unpin(f)
				}
			}
		}
	}
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
		mgr.SetQuery(QueryWeights{0: 1, 1: 2, 2: 3})
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
					w := make(QueryWeights, 3)
					for tm := postings.TermID(0); tm < 3; tm++ {
						w[tm] = float64(r.Intn(5))
					}
					mgr.SetQuery(w)
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

// TestRAPHeapIndicesConsistent: after arbitrary operations —
// admissions, evictions past pinned frames, failed loads, re-keying
// announcements, Flush — RAP's structure must be whole: every resident
// frame in exactly one group (its term's), each group in its static
// offset order with the weight the shard's table holds, the heap's
// positions and keys current, and the heap order intact.
func TestRAPHeapIndicesConsistent(t *testing.T) {
	ix, pages := goldenIndex(t)
	for _, pol := range []*RAP{NewRAP(), NewRAPHeadFirst()} {
		store := &nthReadFails{inner: storage.NewStore(pages), period: 23}
		mgr, err := newSerial(24, store, ix, pol)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(9))
		var held []*Frame
		for op := 0; op < 3000; op++ {
			switch {
			case op%20 == 0:
				w := make(QueryWeights)
				for n := r.Intn(8); n > 0; n-- {
					tm := postings.TermID(r.Intn(30))
					w[tm] = float64(r.Intn(3)) * ix.IDF(tm)
				}
				mgr.SetQuery(w)
			case op%700 == 699:
				for _, f := range held {
					mgr.Unpin(f)
				}
				held = held[:0]
				mgr.Flush()
			case len(held) > 0 && r.Intn(3) == 0:
				mgr.Unpin(held[0])
				held = held[1:]
			default:
				tm := postings.TermID(r.Intn(30))
				f, err := pin(mgr, ix.PageOf(tm, r.Intn(ix.Terms[tm].NumPages)))
				if err != nil {
					continue // a failed load: Admitted, then Removed
				}
				if r.Intn(6) == 0 && len(held) < 4 {
					held = append(held, f)
				} else {
					mgr.Unpin(f)
				}
			}
			checkRAPInvariants(t, op, pol, mgr.shards[0].frames)
		}
		for _, f := range held {
			mgr.Unpin(f)
		}
	}
}

func checkRAPInvariants(t *testing.T, op int, p *RAP, resident map[postings.PageID]*Frame) {
	t.Helper()
	grouped := 0
	for term, g := range p.groups {
		if g.term != term || len(g.frames) == 0 {
			t.Fatalf("%s op %d: group of term %d says term %d and holds %d frames", p.Name(), op, term, g.term, len(g.frames))
		}
		if g.w != p.weight[term] {
			t.Fatalf("%s op %d: group of term %d weighs %v, table says %v", p.Name(), op, term, g.w, p.weight[term])
		}
		for i, f := range g.frames {
			if f.Term != term || f.group != g || resident[f.Page] != f {
				t.Fatalf("%s op %d: group of term %d holds a stranger, page %d", p.Name(), op, term, f.Page)
			}
			if i > 0 && (g.frames[i-1].Offset >= f.Offset || g.frames[i-1].WStar < f.WStar) {
				t.Fatalf("%s op %d: group of term %d out of its static order at %d", p.Name(), op, term, i)
			}
		}
		grouped += len(g.frames)
		if g.pos >= len(p.heap) || p.heap[g.pos] != g {
			t.Fatalf("%s op %d: group of term %d is not at heap position %d", p.Name(), op, term, g.pos)
		}
		// The key is the group's next victim: the minimum over its frames.
		next := g.frames[0]
		for _, f := range g.frames[1:] {
			if p.less(g.keyOf(f), g.keyOf(next)) {
				next = f
			}
		}
		if g.key != g.keyOf(next) {
			t.Fatalf("%s op %d: group of term %d keyed %+v, its next victim is %+v", p.Name(), op, term, g.key, g.keyOf(next))
		}
	}
	if grouped != len(resident) {
		t.Fatalf("%s op %d: %d frames in groups, %d resident", p.Name(), op, grouped, len(resident))
	}
	if len(p.heap) != len(p.groups) {
		t.Fatalf("%s op %d: heap of %d groups, %d terms resident", p.Name(), op, len(p.heap), len(p.groups))
	}
	for i := 1; i < len(p.heap); i++ {
		if p.less(p.heap[i].key, p.heap[(i-1)/2].key) {
			t.Fatalf("%s op %d: heap order broken at %d", p.Name(), op, i)
		}
	}
	for _, g := range p.free {
		if len(g.frames) != 0 {
			t.Fatalf("%s op %d: recycled group still holds %d frames", p.Name(), op, len(g.frames))
		}
	}
}
