package engine_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/storage"
)

// TestChaosServingInvariants runs a randomized multi-worker workload
// over a store with a seeded fault schedule (transient read errors plus
// occasional latency spikes) and checks the serving-counter invariants
// the observability layer promises:
//
//	Queries   == Completed + Timeouts + Canceled + Errors + Degraded
//	PagesRead == pool misses == successful store reads
//
// The fault rate is high enough that retries are exercised and some
// queries degrade, yet every query must still deliver an answer — the
// retry/backoff loop absorbs transient faults and the fault budget
// absorbs the rest. Run under -race this doubles as a concurrency test
// of the whole fault path.
func TestChaosServingInvariants(t *testing.T) {
	e := testEnv(t)
	rules, err := storage.ParseFaultSchedule(
		"transient:prob=0.25;latency:prob=0.01,spike=200us")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(e.Store, 1998, rules)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewShardedSharedPool(64, 4, fs, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	params := e.Params()
	params.FaultBudget = 8
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{
		Workers: 8, Params: params,
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Manager().SetRetryPolicy(buffer.RetryPolicy{
		MaxRetries: 2,
		Backoff:    50 * time.Microsecond,
		VictimWait: time.Second,
		OnRetry:    eng.RecordRetry,
	})

	reads0 := fs.Reads()
	rng := rand.New(rand.NewSource(7))
	var jobs []*engine.Job
	for i := 0; i < 240; i++ {
		user := i % 8
		q := e.Queries[rng.Intn(len(e.Queries))]
		job, err := eng.SubmitContext(context.Background(), user, q)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	delivered := 0
	for _, job := range jobs {
		if _, err := job.Wait(); err == nil {
			delivered++
		}
	}
	eng.Close()

	st := eng.Counters()
	if st.Queries != int64(len(jobs)) {
		t.Errorf("Queries = %d, want %d", st.Queries, len(jobs))
	}
	if got := st.Completed + st.Timeouts + st.Canceled + st.Errors + st.Degraded; got != st.Queries {
		t.Errorf("outcome buckets sum to %d, want Queries=%d (%+v)", got, st.Queries, st)
	}
	if float64(delivered) < 0.99*float64(len(jobs)) {
		t.Errorf("only %d/%d queries delivered an answer, want >= 99%%", delivered, len(jobs))
	}
	misses := pool.Manager().Stats().Misses
	if st.PagesRead != misses {
		t.Errorf("PagesRead %d != pool misses %d", st.PagesRead, misses)
	}
	if reads := fs.Reads() - reads0; reads != misses {
		t.Errorf("successful store reads %d != pool misses %d", reads, misses)
	}
	if pool.Manager().PinnedFrames() != 0 {
		t.Errorf("%d frames still pinned at quiescence", pool.Manager().PinnedFrames())
	}
	fst := fs.FaultStats()
	if fst.Transient == 0 {
		t.Error("no transient faults injected — the chaos schedule did not fire")
	}
	if st.Retries == 0 {
		t.Error("Retries counter is zero despite injected transient faults")
	}
	t.Logf("chaos: %d queries (%d completed, %d degraded, %d errors), %d retries, faults %+v",
		st.Queries, st.Completed, st.Degraded, st.Errors, st.Retries, fst)
}

// TestChaosPermanentFaultPagesRead is the deterministic core of the
// PagesRead invariant above: with no fault budget, a query that hits a
// permanently dead page fails — after reading the pages in front of
// it. Those reads happened, so the engine must charge them: PagesRead
// equals the pool's misses even when queries error.
func TestChaosPermanentFaultPagesRead(t *testing.T) {
	e := testEnv(t)
	// The second page of a query term's list: every query holding the
	// term reads its first page, and usually others, before failing.
	var dead int
	for _, qt := range e.Queries[0] {
		if e.Idx.Terms[qt.Term].NumPages > 1 {
			dead = int(e.Idx.PageOf(qt.Term, 1))
			break
		}
	}
	rules, err := storage.ParseFaultSchedule(fmt.Sprintf("permanent:pages=%d", dead))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFaultStore(e.Store, 1, rules)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewShardedSharedPool(64, 1, fs, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	params := e.Params()
	params.FaultBudget = 0
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{Workers: 1, Params: params})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range e.Queries {
		res, err := eng.SearchContext(context.Background(), 0, q)
		if err != nil && res != nil {
			t.Fatalf("failed query delivered a result: %v", err)
		}
	}
	eng.Close()

	st := eng.Counters()
	if st.Errors == 0 {
		t.Fatal("no query hit the dead page")
	}
	if misses := pool.Manager().Stats().Misses; st.PagesRead != misses {
		t.Errorf("PagesRead %d != pool misses %d (%d errors)", st.PagesRead, misses, st.Errors)
	}
}
