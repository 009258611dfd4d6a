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
			resident := residentFrames(mgr)
			for p := postings.PageID(0); int(p) < ix.NumPagesTotal; p++ {
				if resident[p] == nil {
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

// TestRAPHeapIndicesConsistent: after arbitrary operations —
// admissions, evictions past pinned frames, failed loads, re-keying
// announcements, Flush — RAP's structure must be whole: every resident
// frame in exactly one group (its term's), each group in its static
// offset order with the weight the shard's table holds, the heap's
// positions and keys current, and the heap order intact.
func TestRAPHeapIndicesConsistent(t *testing.T) {
	ix, pages := goldenIndex(t)
	for _, pol := range []*RAP{NewRAP(), NewRAPHeadFirst()} {
		store := &flakyStore{inner: storage.NewStore(pages), perm: true, every: 23}
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
			checkRAPInvariants(t, op, pol, residentFrames(mgr))
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
