package buffer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// flakyStore wraps a store with a per-page count of forced failures:
// the first fail[p] counted reads of page p error, later reads succeed.
// attempts counts every read issued, delivered or not.
type flakyStore struct {
	inner *storage.Store
	perm  bool // make injected errors permanent-classified

	mu       sync.Mutex
	fail     map[postings.PageID]int
	attempts int
}

type permErr struct{}

func (permErr) Error() string        { return "flaky: permanent media loss" }
func (permErr) PermanentFault() bool { return true }

var errFlaky = errors.New("flaky: transient read error")

func (s *flakyStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	s.mu.Lock()
	s.attempts++
	n := s.fail[id]
	if n > 0 {
		s.fail[id] = n - 1
	}
	s.mu.Unlock()
	if n > 0 {
		if s.perm {
			return nil, permErr{}
		}
		return nil, errFlaky
	}
	return s.inner.ReadContext(ctx, id)
}

func (s *flakyStore) readAttempts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}

// gatedStore hands the test full control of one in-flight read: the
// read announces itself on started, then blocks until the test sends
// its outcome on release (nil = delegate to the real store).
type gatedStore struct {
	inner   *storage.Store
	started chan postings.PageID
	release chan error
}

func newGatedStore(inner *storage.Store) *gatedStore {
	return &gatedStore{inner: inner, started: make(chan postings.PageID), release: make(chan error)}
}

func (s *gatedStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	s.started <- id
	if err := <-s.release; err != nil {
		return nil, err
	}
	return s.inner.ReadContext(ctx, id)
}

// quickRetry returns a retry policy with negligible real backoff.
func quickRetry(max int, onRetry func(time.Duration)) RetryPolicy {
	return RetryPolicy{MaxRetries: max, Backoff: time.Microsecond, OnRetry: onRetry}
}

func TestLoaderRetriesTransientFaults(t *testing.T) {
	ix, st := testEnv(t)
	fs := &flakyStore{inner: st, fail: map[postings.PageID]int{0: 2}}
	var retries atomic.Int64
	pool, err := newSerial(4, fs, ix, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	pool.SetRetryPolicy(quickRetry(3, func(time.Duration) { retries.Add(1) }))
	f, missed, err := fetch(pool, 0)
	if err != nil {
		t.Fatalf("fetch after retries: %v", err)
	}
	if !missed || len(f.Data()) == 0 {
		t.Errorf("missed=%v data=%d entries, want a loaded miss", missed, len(f.Data()))
	}
	pool.Unpin(f)
	if got := fs.readAttempts(); got != 3 {
		t.Errorf("store attempts = %d, want 3 (2 failures + 1 success)", got)
	}
	if got := retries.Load(); got != 2 {
		t.Errorf("OnRetry calls = %d, want 2", got)
	}
	s := pool.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v, want exactly 1 miss (retries are not extra misses)", s)
	}
	if st.Reads() != 1 {
		t.Errorf("successful store reads = %d, want 1", st.Reads())
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	ix, st := testEnv(t)
	fs := &flakyStore{inner: st, fail: map[postings.PageID]int{0: 100}}
	pool, _ := newSerial(4, fs, ix, NewLRU())
	pool.SetRetryPolicy(quickRetry(2, nil))
	if _, _, err := fetch(pool, 0); !errors.Is(err, errFlaky) {
		t.Fatalf("err = %v, want the store's error after budget exhaustion", err)
	}
	if got := fs.readAttempts(); got != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 retries)", got)
	}
	// The failed load must leave no residue, as if never tried.
	if pool.InUse() != 0 || pool.ResidentPages(0) != 0 || pool.Stats().Misses != 0 {
		t.Errorf("residue after failed load: inuse=%d resident=%d stats=%+v",
			pool.InUse(), pool.ResidentPages(0), pool.Stats())
	}
}

func TestPermanentFaultNotRetried(t *testing.T) {
	ix, st := testEnv(t)
	fs := &flakyStore{inner: st, perm: true, fail: map[postings.PageID]int{0: 100}}
	m, _ := NewManager(4, 1, fs, ix, func(int) Policy { return NewLRU() })
	var retries atomic.Int64
	m.SetRetryPolicy(quickRetry(5, func(time.Duration) { retries.Add(1) }))
	_, _, err := fetch(m, 0)
	var pf interface{ PermanentFault() bool }
	if !errors.As(err, &pf) {
		t.Fatalf("err = %v, want the permanent fault", err)
	}
	if fs.readAttempts() != 1 || retries.Load() != 0 {
		t.Errorf("attempts=%d retries=%d, want 1/0: permanent faults must not be retried",
			fs.readAttempts(), retries.Load())
	}
}

// TestWaiterReattemptsFailedLoad is the regression test for the
// single-flight error-isolation bug: a waiter parked on another
// session's failed load used to inherit that session's I/O error
// verbatim. It must instead re-attempt the fetch under its own context
// — here becoming the new loader and succeeding.
func TestWaiterReattemptsFailedLoad(t *testing.T) {
	ix, st := testEnv(t)
	gs := newGatedStore(st)
	m, _ := NewManager(4, 1, gs, ix, func(int) Policy { return NewLRU() })

	loaderErr := make(chan error, 1)
	go func() {
		_, _, err := m.FetchContext(context.Background(), 0)
		loaderErr <- err
	}()
	<-gs.started // loader's read is in flight

	waiterDone := make(chan error, 1)
	go func() {
		f, missed, err := m.FetchContext(context.Background(), 0)
		if err == nil {
			if !missed {
				err = errors.New("waiter should have become the loader (missed=false)")
			} else if len(f.Data()) == 0 {
				err = errors.New("waiter got an empty frame")
			}
			if f != nil {
				m.Unpin(f)
			}
		}
		waiterDone <- err
	}()
	// Wait until the waiter has parked on the frame (pin count 2).
	waitPin(t, m, 0, 2)

	gs.release <- errFlaky // the loader's read fails
	if err := <-loaderErr; !errors.Is(err, errFlaky) {
		t.Fatalf("loader err = %v, want its own I/O error", err)
	}
	// The waiter must now re-attempt: a second read arrives; let it
	// succeed.
	select {
	case <-gs.started:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never re-attempted the fetch after the loader's failure")
	}
	gs.release <- nil
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter err = %v, want success via its own re-attempt", err)
	}
	s := m.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (the failed load was undone, the waiter's succeeded)", s.Misses)
	}
}

// waitPin polls until page id's frame has the wanted pin count.
func waitPin(t *testing.T, m *Manager, id postings.PageID, want int32) {
	t.Helper()
	sh := m.shardOf(id)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		f := sh.frames.get(id)
		pin := int32(0)
		if f != nil {
			pin = f.pin.Load()
		}
		sh.mu.Unlock()
		if pin == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pin of page %d never reached %d (now %d)", id, want, pin)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestFailedLoadDropsResidency is the regression test for the BAF b_t
// accounting bug: a poisoned frame kept alive by a waiter's pin used to
// keep counting in resident[term], making BAF see a data-less page as
// buffer-resident. Residency must drop when the load fails, and must
// not drop again when the last pin finally withdraws the frame.
func TestFailedLoadDropsResidency(t *testing.T) {
	ix, st := testEnv(t)
	gs := newGatedStore(st)
	m, _ := NewManager(4, 1, gs, ix, func(int) Policy { return NewLRU() })

	loaderErr := make(chan error, 1)
	go func() {
		_, _, err := m.FetchContext(context.Background(), 0)
		loaderErr <- err
	}()
	<-gs.started

	// Simulate a parked waiter deterministically: an extra pin, exactly
	// what a fetch holds while parked on the loading page.
	sh := m.shardOf(0)
	sh.mu.Lock()
	f := sh.frames.get(0)
	if f == nil {
		sh.mu.Unlock()
		t.Fatal("no frame reserved for the in-flight load")
	}
	f.pin.Add(1)
	sh.mu.Unlock()

	gs.release <- errFlaky
	if err := <-loaderErr; err == nil {
		t.Fatal("loader should have failed")
	}

	// The poisoned frame is still occupied (waiter pin) but must no
	// longer count as resident: b_t sees data, not corpses.
	if got := m.ResidentPages(0); got != 0 {
		t.Errorf("ResidentPages = %d with a poisoned frame alive, want 0", got)
	}
	if m.InUse() != 1 {
		t.Errorf("InUse = %d, want 1 (frame kept alive by the waiter pin)", m.InUse())
	}

	// Last pin drops: frame withdrawn, and residency must not go
	// negative (the double-decrement the nonResident flag prevents).
	m.releaseWaiter(sh, f)
	if m.InUse() != 0 {
		t.Errorf("InUse = %d after last pin dropped, want 0", m.InUse())
	}
	if got := m.ResidentPages(0); got != 0 {
		t.Errorf("ResidentPages = %d after removal, want 0 (double decrement?)", got)
	}
}

func TestVictimWaitBackpressure(t *testing.T) {
	ix, st := testEnv(t)
	pool, _ := newSerial(1, st, ix, NewLRU())
	pool.SetRetryPolicy(RetryPolicy{VictimWait: 5 * time.Second})

	f0, _, err := fetch(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		f1, _, err := fetch(pool, 4) // different term, pool full & pinned
		if err == nil {
			pool.Unpin(f1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("fetch returned %v immediately, want it to wait for a pin drop", err)
	case <-time.After(20 * time.Millisecond):
	}
	pool.Unpin(f0)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("backpressured fetch failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backpressured fetch never woke after the pin dropped")
	}
}

func TestVictimWaitTimesOut(t *testing.T) {
	ix, st := testEnv(t)
	pool, _ := newSerial(1, st, ix, NewLRU())
	pool.SetRetryPolicy(RetryPolicy{VictimWait: 50 * time.Millisecond})
	f0, _, err := fetch(pool, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Unpin(f0)
	start := time.Now()
	_, _, err = fetch(pool, 4)
	if !errors.Is(err, ErrNoVictim) {
		t.Fatalf("err = %v, want ErrNoVictim after the bounded wait", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("gave up after %v, want >= VictimWait", d)
	}
}

func TestVictimWaitHonorsContext(t *testing.T) {
	ix, st := testEnv(t)
	m, _ := NewManager(1, 1, st, ix, func(int) Policy { return NewLRU() })
	m.SetRetryPolicy(RetryPolicy{VictimWait: time.Hour})
	f0, _, err := fetch(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Unpin(f0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err = m.FetchContext(ctx, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestSerialShardedFaultParity is the E12-on-error-paths audit. It
// used to drive the serial manager and a 1-shard sharded manager
// through one seeded fault schedule and compare them; the serial twin
// is gone, so its side of the comparison is kept as the literal
// outcomes, counters, residency and store reads it produced: the one
// manager must keep reproducing them step for step.
func TestSerialShardedFaultParity(t *testing.T) {
	rules, err := storage.ParseFaultSchedule("transient:prob=0.3;permanent:pages=6")
	if err != nil {
		t.Fatal(err)
	}
	// {page, outcome}: "hit", "miss", or the error text.
	want := []struct {
		page    postings.PageID
		outcome string
	}{
		{5, "miss"},
		{0, "miss"},
		{1, "miss"},
		{4, "miss"},
		{1, "hit"},
		{1, "hit"},
		{3, "miss"},
		{0, "miss"},
		{4, "miss"},
		{4, "hit"},
		{0, "hit"},
		{5, "miss"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #1)"},
		{1, "miss"},
		{0, "hit"},
		{0, "hit"},
		{0, "hit"},
		{3, "miss"},
		{0, "hit"},
		{1, "hit"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #3)"},
		{4, "miss"},
		{5, "miss"},
		{3, "miss"},
		{5, "hit"},
		{4, "hit"},
		{1, "miss"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #4)"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #5)"},
		{1, "hit"},
		{4, "hit"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #7)"},
		{1, "hit"},
		{4, "hit"},
		{5, "miss"},
		{5, "hit"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #9)"},
		{0, "miss"},
		{2, "miss"},
		{1, "miss"},
		{1, "hit"},
		{2, "hit"},
		{2, "hit"},
		{1, "hit"},
		{1, "hit"},
		{4, "buffer: load page 4: storage: injected transient fault on page 4 (read #6)"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #10)"},
		{4, "miss"},
		{2, "hit"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #12)"},
		{6, "buffer: load page 6: storage: injected permanent fault on page 6 (read #14)"},
		{3, "miss"},
		{5, "miss"},
		{3, "hit"},
		{1, "miss"},
		{4, "miss"},
		{3, "hit"},
		{2, "miss"},
		{1, "miss"},
		{2, "hit"},
	}
	rng := rand.New(rand.NewSource(11))
	for i, w := range want {
		if p := postings.PageID(rng.Intn(7)); p != w.page {
			t.Fatalf("step %d: seeded trace drew page %d, table says %d", i, p, w.page)
		}
	}

	ix, st := testEnv(t)
	fs, err := storage.NewFaultStore(st, 99, rules)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := newSerial(3, fs, ix, NewLRU())
	if err != nil {
		t.Fatal(err)
	}
	pool.SetRetryPolicy(quickRetry(1, nil))
	for i, w := range want {
		f, missed, err := fetch(pool, w.page)
		got := "hit"
		switch {
		case err != nil:
			got = err.Error()
		case missed:
			got = "miss"
		}
		if err == nil {
			pool.Unpin(f)
		}
		if got != w.outcome {
			t.Errorf("step %d (page %d): %q, want %q", i, w.page, got, w.outcome)
		}
	}
	if got, want := pool.Stats(), (Stats{Hits: 25, Misses: 25, Evictions: 22}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	res := make([]int, len(ix.Terms))
	for tm := range res {
		res[tm] = pool.ResidentPages(postings.TermID(tm))
	}
	if fmt.Sprint(res) != "[3 0 0]" || pool.InUse() != 3 {
		t.Errorf("occupancy: res=%v use=%d, want [3 0 0] and 3", res, pool.InUse())
	}
	if st.Reads() != 25 {
		t.Errorf("successful store reads = %d, want 25", st.Reads())
	}
	if got, want := fs.FaultStats(), (storage.FaultStats{Transient: 14, Permanent: 9}); got != want {
		t.Errorf("faults injected = %+v, want %+v", got, want)
	}
}

// TestChaosCounterInvariants hammers a sharded pool through a seeded
// transient-fault schedule from many goroutines (run under -race) and
// asserts the accounting invariants hold at quiescence: misses equal
// successful store reads, nothing stays pinned, and per-term residency
// sums to the occupied frames.
func TestChaosCounterInvariants(t *testing.T) {
	ix, st := testEnv(t)
	rules, err := storage.ParseFaultSchedule("transient:prob=0.05")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(st, 7, rules)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(4, 2, fs, ix, func(int) Policy { return NewLRU() })
	if err != nil {
		t.Fatal(err)
	}
	m.SetRetryPolicy(RetryPolicy{
		MaxRetries: 2,
		Backoff:    time.Microsecond,
		VictimWait: time.Second,
	})

	var wg sync.WaitGroup
	var fetchErrs atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				p := postings.PageID(rng.Intn(7))
				f, _, err := fetch(m, p)
				if err != nil {
					fetchErrs.Add(1)
					continue
				}
				if f.Page != p || len(f.Data()) == 0 {
					t.Errorf("frame for %d: page=%d entries=%d", p, f.Page, len(f.Data()))
				}
				m.Unpin(f)
			}
		}(w)
	}
	wg.Wait()

	s := m.Stats()
	if s.Misses != fs.Reads() {
		t.Errorf("misses %d != successful store reads %d", s.Misses, fs.Reads())
	}
	if m.PinnedFrames() != 0 {
		t.Errorf("%d frames still pinned at quiescence", m.PinnedFrames())
	}
	total := 0
	for tm := range ix.Terms {
		r := m.ResidentPages(postings.TermID(tm))
		if r < 0 {
			t.Errorf("negative residency for term %d: %d", tm, r)
		}
		total += r
	}
	if total != m.InUse() {
		t.Errorf("resident sum %d != in-use %d", total, m.InUse())
	}
	if fst := fs.FaultStats(); fst.Transient == 0 {
		t.Error("chaos run injected no faults — schedule not exercised")
	}
	t.Logf("chaos: %d misses, %d hits, %d faults injected, %d fetch errors surfaced",
		s.Misses, s.Hits, fs.FaultStats().Transient, fetchErrs.Load())
}
