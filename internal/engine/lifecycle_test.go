package engine_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/storage"
)

// newTestEngine builds a sharded shared pool plus an engine over the
// shared test Env, returning both so tests can inspect the pool after
// Close. A positive readLatency puts the pool over a latency layer of
// its own that makes every read take that long; the Env's store is
// never touched.
func newTestEngine(t *testing.T, pages, workers, shards int, readLatency time.Duration, cfg engine.Config) (*engine.Engine, *buffer.SharedPool) {
	t.Helper()
	e := testEnv(t)
	var store storage.PageStore = e.Store
	if readLatency > 0 {
		slow := storage.NewFaultRule(storage.FaultLatency)
		slow.Spike = readLatency
		var err error
		if store, err = storage.NewFaultStore(e.Store, 0, []storage.FaultRule{slow}); err != nil {
			t.Fatal(err)
		}
	}
	pool, err := buffer.NewShardedSharedPool(pages, shards, store, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = workers
	cfg.Algo = eval.BAF
	cfg.Params = e.Params()
	eng, err := newEngine(e, pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, pool
}

// assertNoEngineLeaks fails the test if, after Close, any worker
// goroutine is still alive, a frame is still pinned, or a session is
// still registered. Goroutine exit is asynchronous with Close's
// wg.Wait return only in the test's view of runtime.Stack, so the
// scan retries briefly.
func assertNoEngineLeaks(t *testing.T, pool *buffer.SharedPool) {
	t.Helper()
	if n := pool.Manager().PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after Close", n)
	}
	if n := pool.ActiveUsers(); n != 0 {
		t.Errorf("%d sessions still in the shared registry after Close", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "engine.(*Engine).worker") {
			return
		}
		if time.Now().After(deadline) {
			t.Error("worker goroutines still running after Close")
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelMidEvaluationNoLeaks is the -race stress test of the
// cancellation path: many users run refinement queries under simulated
// disk latency while their contexts are canceled at staggered points
// mid-evaluation. Every job must settle (full answer, partial+ctx
// error, or plain ctx error), and after Close the pool must hold zero
// pinned frames and zero registry entries.
func TestCancelMidEvaluationNoLeaks(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 48, 4, 4, 100*time.Microsecond, engine.Config{})

	const users, rounds = 6, 4
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				j, err := eng.SubmitContext(ctx, u, e.Queries[(u+r)%len(e.Queries)])
				if err != nil {
					t.Error(err)
					cancel()
					return
				}
				// Stagger the cancel across the evaluation: some jobs
				// die while queued, some mid-scan, some finish first.
				go func(d time.Duration) {
					time.Sleep(d)
					cancel()
				}(time.Duration(u*rounds+r) * 150 * time.Microsecond)
				res, err := j.Wait()
				switch {
				case err == nil:
					// ran to completion before the cancel
				case errors.Is(err, context.Canceled):
					if res != nil && !res.Partial {
						t.Errorf("canceled job returned a non-partial result")
					}
				default:
					t.Errorf("unexpected job error: %v", err)
				}
			}
		}(u)
	}
	wg.Wait()
	eng.Close()
	assertNoEngineLeaks(t, pool)
	st := eng.Counters()
	if st.Canceled == 0 {
		t.Error("stress run canceled no jobs; staggering is miscalibrated")
	}
	if st.Queries != users*rounds {
		t.Errorf("Queries = %d, want %d", st.Queries, users*rounds)
	}
	// Regression: canceled evaluations used to lose their disk-read
	// charges (the result was nulled before the counters were added).
	if misses := pool.Manager().Stats().Misses; st.PagesRead != misses {
		t.Errorf("PagesRead %d != pool misses %d: canceled evaluations lost their read charges", st.PagesRead, misses)
	}
}

// TestQueueFullShed: with MaxQueue set and the lone worker stalled on
// simulated disk latency, a burst of submits must shed with
// ErrQueueFull, the Shed counter must agree, and shed requests must
// not corrupt the user's FIFO chain (later submits still execute in
// order).
func TestQueueFullShed(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 32, 1, 1, 200*time.Microsecond, engine.Config{MaxQueue: 2})

	var jobs []*engine.Job
	shed := 0
	for i := 0; i < 20; i++ {
		j, err := eng.SubmitContext(context.Background(), i%3, e.Queries[i%len(e.Queries)])
		if err != nil {
			if !errors.Is(err, engine.ErrQueueFull) {
				t.Fatalf("submit %d: %v", i, err)
			}
			shed++
			continue
		}
		jobs = append(jobs, j)
	}
	if shed == 0 {
		t.Fatal("no submit was shed; MaxQueue is not limiting admission")
	}
	for _, j := range jobs {
		if _, err := j.Wait(); err != nil {
			t.Errorf("accepted job failed: %v", err)
		}
	}
	eng.Close()
	assertNoEngineLeaks(t, pool)
	st := eng.Counters()
	if st.Shed != int64(shed) {
		t.Errorf("Shed counter = %d, want %d", st.Shed, shed)
	}
	if st.Queries != int64(len(jobs)) {
		t.Errorf("Queries = %d, want %d accepted jobs", st.Queries, len(jobs))
	}
}

// TestDeadlinePartial: an expiring QueryTimeout under PartialOnDeadline
// returns the anytime answer — non-nil result, Partial set, nil error,
// at least one term trace cut short — and the Timeouts/Partials
// counters agree.
func TestDeadlinePartial(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 64, 1, 1, 150*time.Microsecond, engine.Config{
		QueryTimeout: 300 * time.Microsecond,
		OnDeadline:   engine.PartialOnDeadline,
	})

	sawPartial := false
	for i := 0; i < 8 && !sawPartial; i++ {
		res, err := eng.SearchContext(context.Background(), 0, e.Queries[i%len(e.Queries)])
		if err != nil {
			// Deadline before any round completed: still a legal
			// outcome of the partial policy when nothing accumulated.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("search %d: %v", i, err)
			}
			continue
		}
		if res.Partial {
			// A deadline can fire mid-scan (a Truncated trace entry)
			// or exactly at a round boundary (no list cut short);
			// both are legal anytime stops — the eval package's
			// TestCancelMidScanReturnsPartial pins the mid-scan shape
			// deterministically.
			sawPartial = true
		}
	}
	eng.Close()
	assertNoEngineLeaks(t, pool)
	st := eng.Counters()
	if !sawPartial {
		t.Fatalf("no partial answer in 8 tries (timeouts=%d); latency/deadline miscalibrated", st.Timeouts)
	}
	if st.Partials == 0 || st.Timeouts < st.Partials {
		t.Errorf("counters: Timeouts=%d Partials=%d, want Partials>0 and Timeouts>=Partials", st.Timeouts, st.Partials)
	}
	if misses := pool.Manager().Stats().Misses; st.PagesRead != misses {
		t.Errorf("PagesRead %d != pool misses %d: timed-out evaluations lost their read charges", st.PagesRead, misses)
	}
}

// TestDeadlineAbort: the default policy surfaces
// context.DeadlineExceeded with no result.
func TestDeadlineAbort(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 64, 1, 1, 200*time.Microsecond, engine.Config{
		QueryTimeout: 200 * time.Microsecond,
	})

	res, err := eng.SearchContext(context.Background(), 0, e.Queries[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res != nil {
		t.Error("abort policy returned a result")
	}
	eng.Close()
	assertNoEngineLeaks(t, pool)
	st := eng.Counters()
	if st.Timeouts != 1 || st.Partials != 0 {
		t.Errorf("counters: Timeouts=%d Partials=%d, want 1/0", st.Timeouts, st.Partials)
	}
	// Regression: the aborted request returns no result, but the pages
	// it read before the deadline must still be charged. (The deadline
	// can race the first read to zero pages; equality is the invariant.)
	if misses := pool.Manager().Stats().Misses; st.PagesRead != misses {
		t.Errorf("PagesRead %d (pool misses %d): aborted evaluation's reads must be charged", st.PagesRead, misses)
	}
}

// TestCanceledWhileQueued: a request whose context dies before a
// worker picks it up completes with context.Canceled without
// evaluating (no pages read for it).
func TestCanceledWhileQueued(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 64, 1, 1, 200*time.Microsecond, engine.Config{})

	// Occupy the lone worker, then queue a request and cancel it.
	first, err := eng.SubmitContext(context.Background(), 0, e.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	second, err := eng.SubmitContext(ctx, 1, e.Queries[1])
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-canceled job: err = %v, want Canceled", err)
	}
	eng.Close()
	assertNoEngineLeaks(t, pool)
	if st := eng.Counters(); st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
}

// TestOutcomeInvariant: under randomized cancel/timeout/shed load (run
// with -race in CI) the outcome buckets partition the executed
// requests exactly — Queries == Completed + Timeouts + Canceled +
// Errors — Shed counts only never-executed requests and stays
// disjoint, Partials is a subset of Timeouts, and every executed
// request's disk reads are charged (PagesRead == pool misses).
func TestOutcomeInvariant(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 48, 4, 4, 80*time.Microsecond, engine.Config{
		MaxQueue:     8,
		QueryTimeout: 2 * time.Millisecond,
		OnDeadline:   engine.PartialOnDeadline,
	})

	// Pre-generate the cancellation plan: rand.Rand is not
	// goroutine-safe, and a fixed seed keeps failures replayable.
	const users, rounds = 8, 6
	r := rand.New(rand.NewSource(1998))
	cancelAfter := make([][]time.Duration, users)
	for u := range cancelAfter {
		cancelAfter[u] = make([]time.Duration, rounds)
		for i := range cancelAfter[u] {
			if r.Intn(2) == 0 {
				cancelAfter[u][i] = time.Duration(r.Intn(1500)) * time.Microsecond
			} else {
				cancelAfter[u][i] = -1 // never canceled by the caller
			}
		}
	}

	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				j, err := eng.SubmitContext(ctx, u, e.Queries[(u+i)%len(e.Queries)])
				if err != nil {
					cancel()
					if errors.Is(err, engine.ErrQueueFull) {
						shed.Add(1)
						continue
					}
					t.Error(err)
					return
				}
				accepted.Add(1)
				if d := cancelAfter[u][i]; d >= 0 {
					go func() {
						time.Sleep(d)
						cancel()
					}()
				}
				res, err := j.Wait()
				switch {
				case err == nil:
					// Completed, or a partial under the deadline policy.
				case errors.Is(err, context.Canceled):
				case errors.Is(err, context.DeadlineExceeded):
				default:
					t.Errorf("user %d round %d: unexpected error %v", u, i, err)
				}
				_ = res
				cancel()
			}
		}(u)
	}
	wg.Wait()
	eng.Close()
	assertNoEngineLeaks(t, pool)

	st := eng.Counters()
	if st.Queries != accepted.Load() {
		t.Errorf("Queries = %d, accepted %d", st.Queries, accepted.Load())
	}
	if st.Shed != shed.Load() {
		t.Errorf("Shed = %d, rejected submits %d", st.Shed, shed.Load())
	}
	if got := st.Completed + st.Timeouts + st.Canceled + st.Errors; got != st.Queries {
		t.Errorf("outcome buckets don't partition: completed %d + timeouts %d + canceled %d + errors %d = %d != queries %d",
			st.Completed, st.Timeouts, st.Canceled, st.Errors, got, st.Queries)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected Errors = %d", st.Errors)
	}
	if st.Partials > st.Timeouts {
		t.Errorf("Partials %d > Timeouts %d", st.Partials, st.Timeouts)
	}
	if misses := pool.Manager().Stats().Misses; st.PagesRead != misses {
		t.Errorf("PagesRead %d != pool misses %d", st.PagesRead, misses)
	}
}

// TestSubmitAfterCloseSentinel: SubmitContext after Close fails with the
// ErrEngineClosed sentinel.
func TestSubmitAfterCloseSentinel(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 16, 1, 1, 0, engine.Config{})
	eng.Close()
	if _, err := eng.SubmitContext(context.Background(), 0, e.Queries[0]); !errors.Is(err, engine.ErrEngineClosed) {
		t.Errorf("err = %v, want ErrEngineClosed", err)
	}
	assertNoEngineLeaks(t, pool)
}

// TestShutdownDeadline: a Shutdown whose context expires cancels the
// in-flight fleet — every job settles promptly with context.Canceled
// (or a ctx-carrying partial) — returns the context's error, and still
// leaves the pool with no pinned frames or registry entries.
func TestShutdownDeadline(t *testing.T) {
	e := testEnv(t)
	eng, pool := newTestEngine(t, 32, 2, 2, 500*time.Microsecond, engine.Config{})

	var jobs []*engine.Job
	for i := 0; i < 12; i++ {
		j, err := eng.SubmitContext(context.Background(), i%4, e.Queries[i%len(e.Queries)])
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := eng.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	canceled := 0
	for _, j := range jobs {
		if _, err := j.Wait(); errors.Is(err, context.Canceled) {
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("expired Shutdown canceled no in-flight jobs")
	}
	// A second Shutdown (and Close) observes the finished drain.
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown = %v, want nil", err)
	}
	eng.Close()
	assertNoEngineLeaks(t, pool)
}

// TestNoTimeoutStillBitForBit: the context plumbing must be free when
// unused — a 1-worker engine with no deadlines reproduces the serial
// read counts exactly (the acceptance bar for the lifecycle change).
// TestSingleWorkerMatchesSerial covers the full workload; this guards
// the same property through SubmitContext with a live context.
func TestNoTimeoutStillBitForBit(t *testing.T) {
	e := testEnv(t)
	seqs := e12Seqs(t, e)
	want, wantMisses := serialRun(t, e, seqs, 60, eval.BAF)
	eng, pool := newTestEngine(t, 60, 1, 1, 0, engine.Config{})
	ctx := context.Background()
	var jobs []*engine.Job
	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	for j := 0; j < maxRef; j++ {
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			job, err := eng.SubmitContext(ctx, u, s.Refinements[j])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
	}
	for i, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.PagesRead != want[i].PagesRead || !sameTop(res.Top, want[i].Top) {
			t.Errorf("job %d diverged from serial run", i)
		}
	}
	misses := pool.Manager().Stats().Misses
	eng.Close()
	if misses != wantMisses {
		t.Errorf("engine misses %d, serial %d", misses, wantMisses)
	}
	assertNoEngineLeaks(t, pool)
}
