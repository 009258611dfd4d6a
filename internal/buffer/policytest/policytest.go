// Package policytest is the conformance suite for buffer.Policy
// implementations: Victim never offers a pinned or departed frame,
// Removed leaves no state behind, Flush and failed loads are not
// evictions, SetQuery is safe, hits reach a policy that has Touched,
// and a seeded trace replays bit for bit, through the serial pool and
// the sharded one. It uses buffer's exported surface only, so it holds
// a policy written outside that package to the same law. A package
// calls one function per clause with its list of Policy rows:
// internal/buffer for the product's policies, internal/experiments for
// the extension policies. It also holds the victim-golden trace runner
// (GoldenVictims) and the single-shard replay signature (ReplaySerial).
package policytest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/storage"
)

// Policy is one row of a policy list: the name the policy reports and
// a constructor of fresh instances for a pool (or shard) of the given
// capacity.
type Policy struct {
	Name string
	New  func(capacity int) buffer.Policy
}

// toucher is a policy that hits inform.
type toucher = interface{ Touched(f *buffer.Frame) }

// ghoster is a policy that keeps a history of evicted pages and
// reports it; the suite then checks that teardown leaves no ghost.
type ghoster = interface{ Ghosted(id postings.PageID) bool }

// Env builds a small index and its store: term 0 "long" with 4 pages,
// term 1 "short" with 2 pages, term 2 "tiny" with 1 page. Frequencies
// descend within lists so w* values descend along each list.
func Env(tb testing.TB) (*postings.Index, *storage.Store) {
	tb.Helper()
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
		tb.Fatal(err)
	}
	return ix, storage.NewStore(pages)
}

// Pool builds the one-shard pool — the serial, reproducible manager
// every experiment runs on — of the given capacity over Env's store,
// around one policy instance.
func Pool(tb testing.TB, capacity int, pol buffer.Policy) *buffer.Manager {
	tb.Helper()
	ix, st := Env(tb)
	m, err := buffer.NewManager(capacity, 1, st, ix, func(int) buffer.Policy { return pol })
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// Get pins page p, failing the test on an error.
func Get(tb testing.TB, m buffer.Pool, p postings.PageID) *buffer.Frame {
	tb.Helper()
	f, _, err := m.FetchContext(context.Background(), p)
	if err != nil {
		tb.Fatalf("fetch(%d): %v", p, err)
	}
	return f
}

// Touch pins and immediately unpins a page (the evaluator's pattern).
func Touch(tb testing.TB, m buffer.Pool, p postings.PageID) {
	tb.Helper()
	m.Unpin(Get(tb, m, p))
}

func pin(m buffer.Pool, p postings.PageID) (*buffer.Frame, error) {
	f, _, err := m.FetchContext(context.Background(), p)
	return f, err
}

// permanentFault is the read error of a failingStore: the buffer
// manager never retries it.
type permanentFault struct{}

func (permanentFault) Error() string        { return "policytest: permanent media loss" }
func (permanentFault) PermanentFault() bool { return true }

// failingStore fails the first fail[id] reads of page id and, when
// every > 0, every every-th read, with a permanentFault; reads counts
// every read issued. The traces that use it are single-threaded.
type failingStore struct {
	inner buffer.PageReader
	fail  map[postings.PageID]int
	every int
	reads int
}

func (s *failingStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	s.reads++
	n := s.fail[id]
	if n > 0 {
		s.fail[id] = n - 1
	}
	if n > 0 || (s.every > 0 && s.reads%s.every == 0) {
		return nil, permanentFault{}
	}
	return s.inner.ReadContext(ctx, id)
}

// each runs f once per policy, as a subtest named after it.
func each(t *testing.T, pols []Policy, f func(t *testing.T, p Policy)) {
	t.Helper()
	for _, p := range pols {
		t.Run(p.Name, func(t *testing.T) { f(t, p) })
	}
}

// VictimNeverPinned: with pins held on all but one frame, every
// eviction the pool is forced into must pick the unpinned frame; with
// everything pinned, a fetch fails with ErrNoVictim rather than
// evicting a pinned page.
func VictimNeverPinned(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		m := Pool(t, 3, p.New(3))
		m.SetQuery(buffer.QueryWeights{0: 1, 1: 2, 2: 3})
		held := []*buffer.Frame{Get(t, m, 0), Get(t, m, 1)}
		m.Unpin(Get(t, m, 2))
		// Pool full, pages 0 and 1 pinned: every further miss must
		// evict the one unpinned frame.
		for pg := postings.PageID(3); pg < 7; pg++ {
			Touch(t, m, pg)
			if !m.Contains(0) || !m.Contains(1) {
				t.Fatalf("%s evicted a pinned page (after fetching %d)", p.Name, pg)
			}
		}
		// Pin the third slot too: no victim remains.
		held = append(held, Get(t, m, 6))
		if _, err := pin(m, 5); err != buffer.ErrNoVictim {
			t.Fatalf("fully-pinned Get = %v, want ErrNoVictim", err)
		}
		for _, f := range held {
			m.Unpin(f)
		}
	})
}

// VictimRemovedSymmetry drives the policy directly: admit a full
// pool's worth of frames, then drain it through Victim/Removed pairs.
// Every Victim must return a distinct resident frame, the emptied
// policy none, and the next admission cycle must behave the same.
func VictimRemovedSymmetry(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		const capacity = 8
		pol := p.New(capacity)
		for cycle := 0; cycle < 3; cycle++ {
			frames := make(map[*buffer.Frame]bool, capacity)
			for i := 0; i < capacity; i++ {
				f := &buffer.Frame{Page: postings.PageID(i), Term: postings.TermID(i % 3), Offset: int32(i), WStar: float64(capacity - i)}
				pol.Admitted(f)
				frames[f] = true
				if t, ok := pol.(toucher); ok && i%2 == 0 {
					t.Touched(f)
				}
			}
			for len(frames) > 0 {
				v := pol.Victim()
				if v == nil {
					t.Fatalf("%s cycle %d: Victim = nil with %d frames resident", p.Name, cycle, len(frames))
				}
				if !frames[v] {
					t.Fatalf("%s cycle %d: Victim returned a non-resident frame %d", p.Name, cycle, v.Page)
				}
				pol.Removed(v)
				delete(frames, v)
			}
			if v := pol.Victim(); v != nil {
				t.Fatalf("%s cycle %d: Victim = %d from an empty policy", p.Name, cycle, v.Page)
			}
		}
	})
}

// SetQuerySafe: SetQuery must be safe on every policy — including the
// query-oblivious ones — with nil and non-nil weights, before and
// after admissions.
func SetQuerySafe(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		m := Pool(t, 3, p.New(3))
		m.SetQuery(nil) // withdrawing before announcing is legal
		Touch(t, m, 0)
		m.SetQuery(buffer.QueryWeights{0: 2.5, 1: 2.5, 2: 2.5})
		for pg := postings.PageID(1); pg < 6; pg++ {
			Touch(t, m, pg)
		}
		m.SetQuery(nil)
		Touch(t, m, 6)
		if m.InUse() != 3 {
			t.Fatalf("%s: InUse = %d, want 3", p.Name, m.InUse())
		}
	})
}

// FlushCycles: Flush must leave no policy state behind — the pool
// refills and churns identically afterwards, the miss/eviction ledger
// stays balanced across cycles, and Flush, which is no eviction, makes
// no page it discards a ghost.
func FlushCycles(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		pol := p.New(3)
		m := Pool(t, 3, pol)
		var prev buffer.Stats
		for cycle := 0; cycle < 4; cycle++ {
			for pg := postings.PageID(0); pg < 7; pg++ {
				Touch(t, m, pg)
			}
			// Each cycle starts from an empty pool, so this cycle's
			// miss/eviction delta must balance the resident count (Flush
			// discards frames without counting evictions).
			s := m.Stats()
			if int((s.Misses-prev.Misses)-(s.Evictions-prev.Evictions)) != m.InUse() {
				t.Fatalf("%s cycle %d: misses %d - evictions %d != in-use %d",
					p.Name, cycle, s.Misses-prev.Misses, s.Evictions-prev.Evictions, m.InUse())
			}
			prev = s
			resident := make(map[postings.PageID]bool)
			for pg := postings.PageID(0); pg < 7; pg++ {
				resident[pg] = m.Contains(pg)
			}
			m.Flush()
			if m.InUse() != 0 {
				t.Fatalf("%s cycle %d: %d frames survive Flush", p.Name, cycle, m.InUse())
			}
			for pg, was := range resident {
				if g, ok := pol.(ghoster); ok && was && g.Ghosted(pg) {
					t.Fatalf("%s cycle %d: Flush made page %d a ghost", p.Name, cycle, pg)
				}
			}
		}
	})
}

// DeterministicTrace: the same seeded trace of fetches, query changes,
// and flushes run twice from fresh state must leave bit-identical
// resident sets and counters — the reproducibility every 1-worker
// experiment replay rests on. ADAPTIVE's seeded tie-breaking is what
// keeps it in this clause.
func DeterministicTrace(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		run := func() ([]uint8, buffer.Stats) {
			m := Pool(t, 3, p.New(3))
			r := rand.New(rand.NewSource(31337))
			var log []uint8 // the resident set after each op, bit p for page p
			for op := 0; op < 500; op++ {
				switch {
				case r.Intn(50) == 0:
					m.Flush()
				case r.Intn(25) == 0:
					m.SetQuery(buffer.QueryWeights{0: float64(r.Intn(4)), 1: float64(r.Intn(4)), 2: float64(r.Intn(4))})
				default:
					Touch(t, m, postings.PageID(r.Intn(7)))
				}
				var state uint8
				for pg := 0; pg < 7; pg++ {
					if m.Contains(postings.PageID(pg)) {
						state |= 1 << pg
					}
				}
				log = append(log, state)
			}
			return log, m.Stats()
		}
		logA, statsA := run()
		logB, statsB := run()
		if statsA != statsB {
			t.Fatalf("%s: stats diverge across identical runs: %+v vs %+v", p.Name, statsA, statsB)
		}
		for i := range logA {
			if logA[i] != logB[i] {
				t.Fatalf("%s: resident set diverges at op %d: %07b vs %07b", p.Name, i, logA[i], logB[i])
			}
		}
	})
}

// PermanentFault pins what a load that fails for good does to a
// policy: the manager reserves the frame (Admitted), the read fails,
// the frame is withdrawn (Removed) — an admission that was never hit
// and never evicted. For every policy that must leave no pinned frame,
// every term's b_t where it was, no miss counted, and no ghost for the
// page that never arrived (for a policy that reports ghosts); on a full
// pool the victim evicted to make room is a genuine eviction and stays
// gone.
func PermanentFault(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		const dead = postings.PageID(6) // the one page of term 2
		ix, st := Env(t)
		fs := &failingStore{inner: st, fail: map[postings.PageID]int{dead: 1 << 30}}
		var pol buffer.Policy
		m, err := buffer.NewManager(3, 1, fs, ix, func(capacity int) buffer.Policy {
			pol = p.New(capacity)
			return pol
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetRetryPolicy(buffer.RetryPolicy{MaxRetries: 3, Backoff: time.Microsecond})
		ghosted := func(id postings.PageID) bool {
			g, ok := pol.(ghoster)
			return ok && g.Ghosted(id)
		}
		residency := func() [3]int {
			return [3]int{m.ResidentPages(0), m.ResidentPages(1), m.ResidentPages(2)}
		}
		failOnce := func(when string) {
			t.Helper()
			_, err := pin(m, dead)
			var pf interface{ PermanentFault() bool }
			if !errors.As(err, &pf) {
				t.Fatalf("%s: fetch of the dead page = %v, want the permanent fault", when, err)
			}
			if n := m.PinnedFrames(); n != 0 {
				t.Errorf("%s: %d frames left pinned", when, n)
			}
			if m.Contains(dead) || ghosted(dead) {
				t.Errorf("%s: dead page resident=%v ghosted=%v, want neither", when, m.Contains(dead), ghosted(dead))
			}
		}

		Touch(t, m, 0)
		Touch(t, m, 4)
		before, stats := residency(), m.Stats()
		failOnce("free frame")
		if got := residency(); got != before {
			t.Errorf("free frame: b_t = %v, want %v unchanged", got, before)
		}
		if got := m.Stats(); got != stats {
			t.Errorf("free frame: stats = %+v, want %+v unchanged", got, stats)
		}

		Touch(t, m, 1) // pool now full: the next reservation evicts first
		failOnce("full pool")
		if got := residency(); got[2] != 0 || got[0]+got[1] != 2 {
			t.Errorf("full pool: b_t = %v, want one victim gone and term 2 still at 0", got)
		}
		if got := m.Stats(); got.Misses != stats.Misses+1 || got.Evictions != stats.Evictions+1 {
			t.Errorf("full pool: stats = %+v, want one more miss (page 1) and one eviction than %+v", got, stats)
		}
		if got := fs.reads; got != 5 {
			t.Errorf("store attempts = %d, want 5 (three pages + two unretried permanent faults)", got)
		}
		// The pool keeps working: the evicted slot refills.
		Touch(t, m, 5)
		if m.InUse() != 3 {
			t.Errorf("InUse = %d after refill, want 3", m.InUse())
		}
	})
}

// Sharded: every policy constructs through the sharded pool with
// per-shard capacities and keeps the occupancy invariants under churn.
func Sharded(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		ix, st := Env(t)
		m, err := buffer.NewManager(5, 2, st, ix, p.New)
		if err != nil {
			t.Fatal(err)
		}
		if m.Policy() != p.Name {
			t.Fatalf("sharded policy name = %q, want %q", m.Policy(), p.Name)
		}
		for i := 0; i < 100; i++ {
			Touch(t, m, postings.PageID(i%7))
		}
		if got := m.InUse(); got > 5 {
			t.Fatalf("%s: InUse %d > capacity 5", p.Name, got)
		}
	})
}

// countTouches counts the Touched calls it forwards to its policy.
type countTouches struct {
	buffer.Policy
	n *atomic.Int64
}

func (p countTouches) Touched(f *buffer.Frame) {
	p.n.Add(1)
	p.Policy.(toucher).Touched(f)
}

// HitsReachTouchers: a policy that has Touched sees every hit, from
// concurrent goroutines on a 2-shard pool. Policies without it pass
// trivially.
func HitsReachTouchers(t *testing.T, pols []Policy) {
	each(t, pols, func(t *testing.T, p Policy) {
		ix, st := Env(t)
		var touches atomic.Int64
		m, err := buffer.NewManager(ix.NumPagesTotal, 2, st, ix, func(c int) buffer.Policy {
			pol := p.New(c)
			if _, ok := pol.(toucher); ok {
				return countTouches{pol, &touches}
			}
			return pol
		})
		if err != nil {
			t.Fatal(err)
		}
		for pg := 0; pg < ix.NumPagesTotal; pg++ {
			Touch(t, m, postings.PageID(pg))
		}
		if _, ok := p.New(1).(toucher); !ok {
			return
		}
		base := m.Stats()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if f, err := pin(m, postings.PageID((g+i)%ix.NumPagesTotal)); err == nil {
						m.Unpin(f)
					}
				}
			}(g)
		}
		wg.Wait()
		s := m.Stats()
		if hits, misses := s.Hits-base.Hits, s.Misses-base.Misses; hits != 800 || misses != 0 || touches.Load() != hits {
			t.Errorf("%s: %d hits, %d misses, %d Touched calls", p.Name, hits, misses, touches.Load())
		}
	})
}

// ShardedManagerProperties replays random traces with pins held across
// operations against multi-shard managers, cycling through the given
// policies, and checks the invariants after every step: the resident
// union never exceeds capacity, pinned pages are never evicted, b_t
// always equals a brute-force recount of buffered pages, and the
// hit/miss ledger balances the fetch count.
func ShardedManagerProperties(t *testing.T, pols []Policy) {
	ix, st := Env(t)
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 30; trial++ {
		nshards := 1 + r.Intn(4)
		capacity := nshards + r.Intn(7-nshards+1)
		mgr, err := buffer.NewManager(capacity, nshards, st, ix, pols[trial%len(pols)].New)
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetQuery(buffer.QueryWeights{0: 1, 1: 2, 2: 3})
		var held []*buffer.Frame
		var fetches int64
		for op := 0; op < 400; op++ {
			switch {
			case len(held) > 0 && r.Intn(3) == 0:
				// Release a random held pin.
				i := r.Intn(len(held))
				mgr.Unpin(held[i])
				held = append(held[:i], held[i+1:]...)
			default:
				f, err := pin(mgr, postings.PageID(r.Intn(7)))
				if err == buffer.ErrNoVictim {
					continue // every frame of the page's shard is pinned: legal
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

// Replay is a policy and what ReplaySerial must produce for it.
type Replay struct {
	Policy
	Stats buffer.Stats // summed over the ten trials
	Sig   uint64
}

// ReplaySerial: the one-shard pool under single-threaded access must
// stay bit-for-bit the serial manager it replaced, on arbitrary traces
// — the equivalence every serial experiment number rests on. That
// manager's side is pinned as its counters and an FNV-1a signature of
// the resident set and b_t after every operation. One random stream
// runs through the rows in order, so a prefix replays unchanged.
func ReplaySerial(t *testing.T, rows []Replay) {
	ix, st := Env(t)
	r := rand.New(rand.NewSource(4242))
	for _, row := range rows {
		var total buffer.Stats
		sig := uint64(14695981039346656037)
		mix := func(v uint64) { sig = (sig ^ v) * 1099511628211 }
		for trial := 0; trial < 10; trial++ {
			capacity := 1 + r.Intn(6)
			mgr, err := buffer.NewManager(capacity, 1, st, ix, row.New)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 400; op++ {
				if r.Intn(40) == 0 {
					w := make(buffer.QueryWeights, 3)
					for tm := postings.TermID(0); tm < 3; tm++ {
						w[tm] = float64(r.Intn(5))
					}
					mgr.SetQuery(w)
				}
				if r.Intn(80) == 0 {
					mgr.Flush()
				}
				Touch(t, mgr, postings.PageID(r.Intn(7)))
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
		if total != row.Stats || sig != row.Sig {
			t.Errorf("%s: stats %+v sig %#x, want %+v sig %#x", row.Name, total, sig, row.Stats, row.Sig)
		}
	}
}
