package buffer

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// The tests in this file cover what the shard latch no longer guards: a
// hit finds and pins its frame without the latch, Unpin and a load's
// completion run without it, and eviction claims its victim by a CAS.

// victimHook runs hook on every frame (or nil) the policy offers as a
// victim, under the shard latch, before the manager claims it.
type victimHook struct {
	Policy
	hook func(v *Frame)
}

func (p victimHook) Victim() *Frame {
	v := p.Policy.Victim()
	p.hook(v)
	return v
}

// waitParked polls until a fetch has registered on the page's shard
// broadcast.
func waitParked(t *testing.T, m *Manager, id postings.PageID) {
	t.Helper()
	sh := m.shardOf(id)
	deadline := time.Now().Add(5 * time.Second)
	for !sh.waiting.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("no fetch parked on the shard of page %d", id)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// within fails the test unless done delivers within five seconds.
func within(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still blocked after 5s", what)
		return nil
	}
}

func TestEvictedFrameNeverPinnedAgain(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := newSerial(1, st, ix, NewRAP())
	stale := get(t, m, 0)
	m.Unpin(stale)
	touch(t, m, 1) // evicts page 0
	if m.Contains(0) {
		t.Fatal("page 0 still resident")
	}
	if stale.tryPin() {
		t.Fatal("a frame that left the pool took a pin")
	}
	if stale.Pinned() {
		t.Fatal("a frame that left the pool reports a pin")
	}
	f := get(t, m, 0)
	if f == stale {
		t.Fatal("the reload returned the evicted frame")
	}
	m.Unpin(f)
	defer func() {
		if recover() == nil {
			t.Error("Unpin of an evicted frame did not panic")
		}
	}()
	m.Unpin(stale)
}

func TestEvictionSkipsVictimPinnedByHit(t *testing.T) {
	ix, st := testEnv(t)
	var m *Manager
	var raced *Frame
	pol := victimHook{Policy: NewRAP(), hook: func(v *Frame) {
		if v == nil || raced != nil {
			return
		}
		// A hit lands between the policy's look and the claim. RAP hits
		// take no latch, so it completes under the evictor's.
		f, missed, err := fetch(m, v.Page)
		if err != nil || missed || f != v {
			t.Errorf("racing hit on page %d: frame %p missed %v err %v", v.Page, f, missed, err)
		}
		raced = f
	}}
	m, _ = newSerial(2, st, ix, pol)
	touch(t, m, 0)
	touch(t, m, 1)
	f := get(t, m, 4) // full: evicts one of pages 0 and 1
	m.Unpin(f)
	if raced == nil {
		t.Fatal("the hook never ran")
	}
	if !m.Contains(raced.Page) || len(raced.Data()) == 0 || !raced.Pinned() {
		t.Fatalf("the victim a hit pinned first was evicted (page %d)", raced.Page)
	}
	if other := 1 - raced.Page; m.Contains(other) {
		t.Errorf("page %d, the next victim, is still resident", other)
	}
	if s := m.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	m.Unpin(raced)
	if m.PinnedFrames() != 0 {
		t.Errorf("%d frames pinned at the end", m.PinnedFrames())
	}
}

// TestParkedFetchWakes parks a fetch on a page another fetch is loading
// and ends the wait each way it can end.
func TestParkedFetchWakes(t *testing.T) {
	for _, tc := range []struct {
		name    string
		loadErr error // the loader's read outcome
		cancel  bool  // the parked fetch's own context dies first
	}{
		{name: "load succeeds"},
		{name: "load fails", loadErr: errFlaky},
		{name: "own context canceled", cancel: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix, st := testEnv(t)
			gs := newGatedStore(st)
			m, _ := NewManager(4, 2, gs, ix, func(int) Policy { return NewRAP() })
			loader := make(chan error, 1)
			go func() {
				f, _, err := m.FetchContext(context.Background(), 0)
				if err == nil {
					m.Unpin(f)
				}
				loader <- err
			}()
			<-gs.started
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var missed bool // written before the send on waited
			waited := make(chan error, 1)
			go func() {
				f, m1, err := m.FetchContext(ctx, 0)
				if err == nil {
					if len(f.Data()) == 0 {
						err = errors.New("woke to a frame without data")
					}
					m.Unpin(f)
				}
				missed = m1
				waited <- err
			}()
			waitPin(t, m, 0, 2)
			waitParked(t, m, 0)

			switch {
			case tc.cancel:
				cancel()
				if err := within(t, waited, "canceled fetch"); !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled fetch: %v, want context.Canceled", err)
				}
				waitPin(t, m, 0, 1) // the loader's pin only
				gs.release <- nil
				if err := within(t, loader, "loader"); err != nil {
					t.Fatalf("loader: %v", err)
				}
			case tc.loadErr != nil:
				gs.release <- tc.loadErr
				if err := within(t, loader, "loader"); !errors.Is(err, tc.loadErr) {
					t.Fatalf("loader: %v, want its own read error", err)
				}
				// The parked fetch re-attempts the read under its own
				// context: a second read arrives.
				select {
				case <-gs.started:
				case <-time.After(5 * time.Second):
					t.Fatal("the parked fetch never re-attempted the failed load")
				}
				gs.release <- nil
				if err := within(t, waited, "re-attempting fetch"); err != nil {
					t.Fatalf("re-attempt: %v", err)
				}
				if !missed {
					t.Error("the re-attempt loaded the page but reports a hit")
				}
			default:
				gs.release <- nil
				if err := within(t, loader, "loader"); err != nil {
					t.Fatalf("loader: %v", err)
				}
				if err := within(t, waited, "parked fetch"); err != nil {
					t.Fatalf("parked fetch: %v", err)
				}
				if missed {
					t.Error("the parked fetch reports a miss; single-flight makes it a hit")
				}
			}
			if m.PinnedFrames() != 0 {
				t.Errorf("%d frames pinned at the end", m.PinnedFrames())
			}
			if s := m.Stats(); s.Misses != st.Reads() {
				t.Errorf("misses %d != successful reads %d", s.Misses, st.Reads())
			}
		})
	}
}

// TestVictimWaitWokenByUnpin: a fetch parked on a fully pinned shard
// wakes when the last pin drops through Unpin, which takes no latch —
// whether the pin drops while the fetch waits or between its first look
// for a victim and its registration.
func TestVictimWaitWokenByUnpin(t *testing.T) {
	for _, early := range []bool{false, true} {
		ix, st := testEnv(t)
		var m *Manager
		var f0 *Frame
		pol := victimHook{Policy: NewLRU(), hook: func(v *Frame) {
			if v == nil && early && f0 != nil {
				m.Unpin(f0)
				f0 = nil
			}
		}}
		m, _ = newSerial(1, st, ix, pol)
		m.SetRetryPolicy(RetryPolicy{VictimWait: time.Minute})
		f0 = get(t, m, 0)
		done := make(chan error, 1)
		go func() {
			f, _, err := fetch(m, 4)
			if err == nil {
				m.Unpin(f)
			}
			done <- err
		}()
		if !early {
			waitParked(t, m, 4)
			m.Unpin(f0)
		}
		if err := within(t, done, "backpressured fetch"); err != nil {
			t.Fatalf("early=%v: %v", early, err)
		}
		if m.Contains(0) || !m.Contains(4) {
			t.Errorf("early=%v: page 0 resident %v, page 4 resident %v", early, m.Contains(0), m.Contains(4))
		}
	}
}

// TestFrameTableAgainstMap drives one frame table through random puts,
// removes and gets, half of them on pages whose home is one of the last
// slots, so probe chains wrap past the end, and compares it with a map
// after every step.
func TestFrameTableAgainstMap(t *testing.T) {
	const capacity = 8
	tab := newFrameTable(capacity)
	if len(tab.slots) < 2*capacity {
		t.Fatalf("%d slots for capacity %d", len(tab.slots), capacity)
	}
	var ids []postings.PageID
	for id := postings.PageID(0); len(ids) < 12; id++ {
		if tab.home(id) >= len(tab.slots)-2 {
			ids = append(ids, id)
		}
	}
	for id := postings.PageID(1000); len(ids) < 24; id += 7 {
		ids = append(ids, id)
	}
	r := rand.New(rand.NewSource(5))
	model := make(map[postings.PageID]*Frame)
	wrapped := 0
	for op := 0; op < 20000; op++ {
		id := ids[r.Intn(len(ids))]
		switch f := model[id]; {
		case f == nil && len(model) < capacity && r.Intn(2) == 0:
			f = &Frame{Page: id}
			tab.put(f)
			model[id] = f
		case f != nil && r.Intn(2) == 0:
			tab.remove(id)
			delete(model, id)
		}
		if tab.n != len(model) {
			t.Fatalf("op %d: table counts %d frames, model %d", op, tab.n, len(model))
		}
		for _, id := range ids {
			if got := tab.get(id); got != model[id] {
				t.Fatalf("op %d: get(%d) = %p, model %p", op, id, got, model[id])
			}
		}
		for i := range tab.slots {
			if f := tab.slots[i].Load(); f != nil && i < tab.home(f.Page) {
				wrapped++
			}
		}
	}
	if wrapped == 0 {
		t.Error("no probe chain wrapped past the end of the slots")
	}
}

// countTouches forwards a policy's Touched calls and counts them.
type countTouches struct {
	Policy
	toucher
	n *atomic.Int64
}

func (p countTouches) Touched(f *Frame) {
	p.n.Add(1)
	p.toucher.Touched(f)
}

// TestHitsReachTouchers: every policy that implements Touched sees every
// hit, from concurrent goroutines; RAP and RAP-headfirst do not
// implement it, and their hits and unpins complete while the test holds
// every shard latch.
func TestHitsReachTouchers(t *testing.T) {
	ix, st := testEnv(t)
	factories := map[string]func(int) Policy{"RAP-headfirst": func(int) Policy { return NewRAPHeadFirst() }}
	for _, p := range allPolicies {
		factories[p.name] = p.mk
	}
	for name, mk := range factories {
		var touches atomic.Int64
		_, isToucher := mk(1).(toucher)
		if wantToucher := name != "RAP" && name != "RAP-headfirst"; isToucher != wantToucher {
			t.Fatalf("%s implements Touched: %v, want %v", name, isToucher, wantToucher)
		}
		m, err := NewManager(ix.NumPagesTotal, 2, st, ix, func(c int) Policy {
			pol := mk(c)
			if tp, ok := pol.(toucher); ok {
				return countTouches{pol, tp, &touches}
			}
			return pol
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < ix.NumPagesTotal; p++ {
			touch(t, m, postings.PageID(p))
		}
		base := m.Stats()
		if !isToucher {
			for i := range m.shards {
				m.shards[i].mu.Lock()
			}
			done := make(chan error, 1)
			go func() {
				for p := 0; p < ix.NumPagesTotal; p++ {
					f, _, err := fetch(m, postings.PageID(p))
					if err != nil {
						done <- err
						return
					}
					m.Unpin(f)
				}
				done <- nil
			}()
			err := within(t, done, name+" hits under held latches")
			for i := range m.shards {
				m.shards[i].mu.Unlock()
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			continue
		}
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
			t.Errorf("%s: %d hits, %d misses, %d Touched calls", name, hits, misses, touches.Load())
		}
	}
}

// TestFetchStress hammers tiny 2-shard RAP and LRU pools from many
// goroutines that fetch, unpin and cancel through a store injecting
// transient faults and latency spikes (run under -race), and checks the
// accounting at quiescence: nothing pinned, occupancy within capacity,
// every b_t equal to a recount of the frame tables, misses equal to
// successful store reads — and every frame a fetch returned held its
// own page's entries.
func TestFetchStress(t *testing.T) {
	ix, pages := goldenIndex(t)
	var ids []postings.PageID
	for k := 0; k < 12; k++ {
		ids = append(ids, ix.PageOf(0, k), postings.PageID(ix.NumPagesTotal-1-k))
	}
	for _, name := range []string{"RAP", "LRU"} {
		t.Run(name, func(t *testing.T) {
			rules, err := storage.ParseFaultSchedule("transient:prob=0.05;latency:prob=0.2,spike=20us")
			if err != nil {
				t.Fatal(err)
			}
			fs, err := storage.NewFaultStore(storage.NewStore(pages), 11, rules)
			if err != nil {
				t.Fatal(err)
			}
			mk, _ := PolicyFactory(name)
			const capacity = 6
			m, err := NewManager(capacity, 2, fs, ix, mk)
			if err != nil {
				t.Fatal(err)
			}
			m.SetRetryPolicy(RetryPolicy{MaxRetries: 1, Backoff: time.Microsecond, VictimWait: time.Second})
			var wg sync.WaitGroup
			var served, failed atomic.Int64
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 300; i++ {
						id := ids[r.Intn(len(ids))]
						ctx, cancel := context.Background(), context.CancelFunc(func() {})
						if r.Intn(6) == 0 {
							ctx, cancel = context.WithTimeout(ctx, time.Duration(r.Intn(40))*time.Microsecond)
						}
						f, _, err := m.FetchContext(ctx, id)
						cancel()
						if err != nil {
							failed.Add(1)
							continue
						}
						if f.Page != id || !reflect.DeepEqual(f.Data(), pages[id]) {
							t.Errorf("fetch of page %d returned page %d with %d entries", id, f.Page, len(f.Data()))
						}
						served.Add(1)
						m.Unpin(f)
					}
				}(w)
			}
			wg.Wait()

			if n := m.PinnedFrames(); n != 0 {
				t.Errorf("%d frames pinned at quiescence", n)
			}
			if n := m.InUse(); n > capacity {
				t.Errorf("%d frames in use, capacity %d", n, capacity)
			}
			recount := make(map[postings.TermID]int)
			for _, f := range residentFrames(m) {
				if !f.nonResident {
					recount[f.Term]++
				}
			}
			for tm := range ix.Terms {
				if got, want := m.ResidentPages(postings.TermID(tm)), recount[postings.TermID(tm)]; got != want {
					t.Errorf("term %d: b_t = %d, the frame tables hold %d", tm, got, want)
				}
			}
			if s := m.Stats(); s.Misses != fs.Reads() {
				t.Errorf("misses %d != successful store reads %d", s.Misses, fs.Reads())
			}
			if fst := fs.FaultStats(); fst.Transient == 0 || served.Load() == 0 {
				t.Errorf("the run injected %d faults and served %d fetches", fst.Transient, served.Load())
			}
			t.Logf("%s: %d served, %d failed, %+v", name, served.Load(), failed.Load(), m.Stats())
		})
	}
}
