package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"bufir/internal/postings"
)

// ---------------------------------------------------------------------------
// Cross-policy conformance suite: every member of PolicyNames — LRU,
// MRU, RAP, LRU-2, 2Q, ADAPTIVE — is held to the same Policy contract.
// make ci runs these (plain and under -race) via the policy-conformance
// gate, so a policy that regresses out of the factory or breaks an
// invariant fails the build.
// ---------------------------------------------------------------------------

// forEachPolicy runs f once per built-in policy with a fresh factory.
func forEachPolicy(t *testing.T, f func(t *testing.T, name string, mk func(int) Policy)) {
	t.Helper()
	for _, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatalf("PolicyFactory(%s): %v", name, err)
		}
		t.Run(name, func(t *testing.T) { f(t, name, mk) })
	}
}

// TestPolicyConformanceVictimNeverPinned: with pins held on all but
// one frame, every eviction the pool is forced into must pick the
// unpinned frame; with everything pinned, Fetch fails with ErrNoVictim
// rather than evicting a pinned page.
func TestPolicyConformanceVictimNeverPinned(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		ix, st := testEnv(t)
		m, err := newSerial(3, st, ix, mk(3))
		if err != nil {
			t.Fatal(err)
		}
		m.SetQuery(QueryWeights{0: 1, 1: 2, 2: 3})
		held := []*Frame{get(t, m, 0), get(t, m, 1)}
		free := get(t, m, 2)
		m.Unpin(free)
		// Pool full, pages 0 and 1 pinned: every further miss must
		// evict the one unpinned frame.
		for p := postings.PageID(3); p < 7; p++ {
			touch(t, m, p)
			if !m.Contains(0) || !m.Contains(1) {
				t.Fatalf("%s evicted a pinned page (after fetching %d)", name, p)
			}
		}
		// Pin the third slot too: no victim remains.
		f := get(t, m, 6)
		held = append(held, f)
		if _, err := pin(m, 5); err != ErrNoVictim {
			t.Fatalf("fully-pinned Get = %v, want ErrNoVictim", err)
		}
		for _, f := range held {
			m.Unpin(f)
		}
	})
}

// TestPolicyConformanceVictimRemovedSymmetry drives the policy
// directly: admit a full pool's worth of frames, then drain it through
// Victim/Removed pairs. Every Victim must return a distinct resident
// unpinned frame, the drain must visit every frame, and the emptied
// policy must hand out no further victims — then accept a fresh
// admission cycle (no state left behind).
func TestPolicyConformanceVictimRemovedSymmetry(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		const capacity = 8
		pol := mk(capacity)
		for cycle := 0; cycle < 3; cycle++ {
			frames := make(map[*Frame]bool, capacity)
			for i := 0; i < capacity; i++ {
				f := &Frame{
					Page:   postings.PageID(i),
					Term:   postings.TermID(i % 3),
					Offset: int32(i),
					WStar:  float64(capacity - i),
				}
				pol.Admitted(f)
				frames[f] = true
				if i%2 == 0 {
					pol.Touched(f)
				}
			}
			for len(frames) > 0 {
				v := pol.Victim()
				if v == nil {
					t.Fatalf("%s cycle %d: Victim = nil with %d frames resident", name, cycle, len(frames))
				}
				if !frames[v] {
					t.Fatalf("%s cycle %d: Victim returned a non-resident frame %d", name, cycle, v.Page)
				}
				pol.Removed(v)
				delete(frames, v)
			}
			if v := pol.Victim(); v != nil {
				t.Fatalf("%s cycle %d: Victim = %d from an empty policy", name, cycle, v.Page)
			}
		}
	})
}

// TestPolicyConformanceSetQuerySafe: SetQuery must be safe on every
// policy — including the query-oblivious ones — with nil and non-nil
// weights, before and after admissions.
func TestPolicyConformanceSetQuerySafe(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		ix, st := testEnv(t)
		m, err := newSerial(3, st, ix, mk(3))
		if err != nil {
			t.Fatal(err)
		}
		m.SetQuery(nil) // withdrawing before announcing is legal
		touch(t, m, 0)
		m.SetQuery(QueryWeights{0: 2.5, 1: 2.5, 2: 2.5})
		for p := postings.PageID(1); p < 6; p++ {
			touch(t, m, p)
		}
		m.SetQuery(nil)
		touch(t, m, 6)
		if m.InUse() != 3 {
			t.Fatalf("%s: InUse = %d, want 3", name, m.InUse())
		}
	})
}

// TestPolicyConformanceFlushCycles: Flush must leave no policy state
// behind — the pool refills and churns identically afterwards, and the
// miss/eviction ledger stays balanced across cycles.
func TestPolicyConformanceFlushCycles(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		ix, st := testEnv(t)
		m, err := newSerial(3, st, ix, mk(3))
		if err != nil {
			t.Fatal(err)
		}
		var prev Stats
		for cycle := 0; cycle < 4; cycle++ {
			for p := postings.PageID(0); p < 7; p++ {
				touch(t, m, p)
			}
			// Each cycle starts from an empty pool, so this cycle's
			// miss/eviction delta must balance the resident count (Flush
			// discards frames without counting evictions).
			s := m.Stats()
			if int((s.Misses-prev.Misses)-(s.Evictions-prev.Evictions)) != m.InUse() {
				t.Fatalf("%s cycle %d: misses %d - evictions %d != in-use %d",
					name, cycle, s.Misses-prev.Misses, s.Evictions-prev.Evictions, m.InUse())
			}
			prev = s
			m.Flush()
			if m.InUse() != 0 {
				t.Fatalf("%s cycle %d: %d frames survive Flush", name, cycle, m.InUse())
			}
		}
	})
}

// TestPolicyConformanceDeterministicTrace: the same seeded trace of
// fetches, query changes, and flushes run twice from fresh state must
// leave bit-identical resident sets and counters — the reproducibility
// every 1-worker experiment replay rests on. ADAPTIVE's seeded
// tie-breaking is what keeps it in this suite.
func TestPolicyConformanceDeterministicTrace(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		run := func() ([]string, Stats) {
			ix, st := testEnv(t)
			m, err := newSerial(3, st, ix, mk(3))
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(31337))
			var log []string
			for op := 0; op < 500; op++ {
				switch {
				case r.Intn(50) == 0:
					m.Flush()
				case r.Intn(25) == 0:
					m.SetQuery(QueryWeights{0: float64(r.Intn(4)), 1: float64(r.Intn(4)), 2: float64(r.Intn(4))})
				default:
					touch(t, m, postings.PageID(r.Intn(7)))
				}
				state := ""
				for p := postings.PageID(0); p < 7; p++ {
					if m.Contains(p) {
						state += "1"
					} else {
						state += "0"
					}
				}
				log = append(log, state)
			}
			return log, m.Stats()
		}
		logA, statsA := run()
		logB, statsB := run()
		if statsA != statsB {
			t.Fatalf("%s: stats diverge across identical runs: %+v vs %+v", name, statsA, statsB)
		}
		for i := range logA {
			if logA[i] != logB[i] {
				t.Fatalf("%s: resident set diverges at op %d: %s vs %s", name, i, logA[i], logB[i])
			}
		}
	})
}

// TestPolicyConformancePermanentFault pins what a load that fails for
// good does to a policy: the manager reserves the frame (Admitted),
// the read fails, the frame is withdrawn (Removed) — an admission that
// was never hit and never evicted. For every policy that must leave no
// pinned frame, every term's b_t where it was, no miss counted, and no
// ghost for the page that never arrived; on a full pool the victim
// evicted to make room is a genuine eviction and stays gone.
func TestPolicyConformancePermanentFault(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		const dead = postings.PageID(6) // the one page of term 2
		ix, st := testEnv(t)
		fs := &flakyStore{inner: st, perm: true, fail: map[postings.PageID]int{dead: 1 << 30}}
		var pol Policy
		m, err := NewManager(3, 1, fs, ix, func(capacity int) Policy {
			pol = mk(capacity)
			return pol
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetRetryPolicy(quickRetry(3, nil))
		ghosted := func(id postings.PageID) bool {
			var g *ghostList
			switch p := pol.(type) {
			case *TwoQ:
				g = p.ghosts
			case *Adaptive:
				g = p.ghosts
			default:
				return false
			}
			_, ok := g.Hit(id)
			return ok
		}
		residency := func() [3]int {
			return [3]int{m.ResidentPages(0), m.ResidentPages(1), m.ResidentPages(2)}
		}
		failOnce := func(when string) {
			t.Helper()
			_, _, err := fetch(m, dead)
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

		touch(t, m, 0)
		touch(t, m, 4)
		before, stats := residency(), m.Stats()
		failOnce("free frame")
		if got := residency(); got != before {
			t.Errorf("free frame: b_t = %v, want %v unchanged", got, before)
		}
		if got := m.Stats(); got != stats {
			t.Errorf("free frame: stats = %+v, want %+v unchanged", got, stats)
		}

		touch(t, m, 1) // pool now full: the next reservation evicts first
		failOnce("full pool")
		if got := residency(); got[2] != 0 || got[0]+got[1] != 2 {
			t.Errorf("full pool: b_t = %v, want one victim gone and term 2 still at 0", got)
		}
		if got := m.Stats(); got.Misses != stats.Misses+1 || got.Evictions != stats.Evictions+1 {
			t.Errorf("full pool: stats = %+v, want one more miss (page 1) and one eviction than %+v", got, stats)
		}
		if got := fs.readAttempts(); got != 5 {
			t.Errorf("store attempts = %d, want 5 (three pages + two unretried permanent faults)", got)
		}
		// The pool keeps working: the evicted slot refills.
		touch(t, m, 5)
		if m.InUse() != 3 {
			t.Errorf("InUse = %d after refill, want 3", m.InUse())
		}
	})
}

// TestPolicyConformanceSharded: every policy constructs through the
// sharded pool with per-shard capacities and keeps the occupancy
// invariants under churn.
func TestPolicyConformanceSharded(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, name string, mk func(int) Policy) {
		ix, st := testEnv(t)
		m, err := NewManager(5, 2, st, ix, mk)
		if err != nil {
			t.Fatal(err)
		}
		if m.Policy() != name {
			t.Fatalf("sharded policy name = %q, want %q", m.Policy(), name)
		}
		for i := 0; i < 100; i++ {
			f, _, err := fetch(m, postings.PageID(i%7))
			if err != nil {
				t.Fatal(err)
			}
			m.Unpin(f)
		}
		if got := m.InUse(); got > 5 {
			t.Fatalf("%s: InUse %d > capacity 5", name, got)
		}
	})
}

// TestPolicyFactoryRejectsUnknown: the canonical factory is the single
// gate for names; a typo must fail loudly everywhere.
func TestPolicyFactoryRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "lru", "CLOCK", "ARC"} {
		if _, err := PolicyFactory(bad); err == nil {
			t.Errorf("PolicyFactory(%q) succeeded, want error", bad)
		}
	}
	if len(PolicyNames) != 6 {
		t.Fatalf("PolicyNames = %v, want 6 entries", PolicyNames)
	}
	for _, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatalf("PolicyFactory(%s): %v", name, err)
		}
		if got := mk(8).Name(); got != name {
			t.Errorf("policy %q reports Name() = %q", name, got)
		}
	}
}

var _ = fmt.Sprintf // keep fmt available for debugging edits
