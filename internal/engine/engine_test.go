package engine_test

import (
	"sync"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/corpus"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/experiments"
	"bufir/internal/rank"
	"bufir/internal/refine"
)

var (
	envOnce sync.Once
	envVal  *experiments.Env
	envErr  error
)

func testEnv(t *testing.T) *experiments.Env {
	t.Helper()
	envOnce.Do(func() {
		envVal, envErr = experiments.NewEnv(corpus.TinyConfig(1998))
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

// e12Seqs builds the E12 workload: four users, topics [0 1 0 1],
// ADD-ONLY refinement sequences.
func e12Seqs(t *testing.T, e *experiments.Env) []*refine.Sequence {
	t.Helper()
	topics := []int{0, 1, 0, 1}
	seqs := make([]*refine.Sequence, len(topics))
	for u, ti := range topics {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			t.Fatal(err)
		}
		seqs[u] = seq
	}
	return seqs
}

func sameTop(a, b []rank.ScoredDoc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// rapPool builds a shared RAP pool over the test Env's store with the
// given latch-shard count.
func rapPool(t *testing.T, e *experiments.Env, pages, shards int) *buffer.SharedPool {
	t.Helper()
	pool, err := buffer.NewShardedSharedPool(pages, shards, e.Store, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// serialRun executes the interleaved stream on a plain shared pool in
// strict round-robin order, returning per-job results in stream order
// and the pool's total misses.
func serialRun(t *testing.T, e *experiments.Env, seqs []*refine.Sequence, pages int, algo eval.Algorithm) ([]*eval.Result, int64) {
	t.Helper()
	pool := rapPool(t, e, pages, 1)
	evs := make([]*eval.Evaluator, len(seqs))
	for u := range seqs {
		ev, err := eval.NewEvaluator(e.Idx, pool.UserView(u), e.Conv, e.Params())
		if err != nil {
			t.Fatal(err)
		}
		evs[u] = ev
	}
	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	var results []*eval.Result
	for j := 0; j < maxRef; j++ {
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			res, err := evs[u].Evaluate(algo, s.Refinements[j])
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
	}
	return results, pool.Manager().Stats().Misses
}

// engineRun executes the same interleaved stream on an Engine and
// returns per-job results in submission order plus the pool's misses.
func engineRun(t *testing.T, e *experiments.Env, seqs []*refine.Sequence, pages, workers, shards int, algo eval.Algorithm) ([]*eval.Result, int64, *engine.Engine) {
	t.Helper()
	pool := rapPool(t, e, pages, shards)
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{Workers: workers, Algo: algo, Params: e.Params()})
	if err != nil {
		t.Fatal(err)
	}
	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	var jobs []*engine.Job
	for j := 0; j < maxRef; j++ {
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			job, err := eng.Submit(u, s.Refinements[j])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, job)
		}
	}
	var results []*eval.Result
	for _, job := range jobs {
		res, err := job.Wait()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	misses := pool.Manager().Stats().Misses
	return results, misses, eng
}

// TestSingleWorkerMatchesSerial: with one worker the engine executes
// the global stream in submission order, so every per-query statistic
// and ranking — not just the total — must match the serial interleave
// bit-for-bit.
func TestSingleWorkerMatchesSerial(t *testing.T) {
	e := testEnv(t)
	seqs := e12Seqs(t, e)
	for _, pages := range []int{7, 60, 400} {
		want, wantMisses := serialRun(t, e, seqs, pages, eval.BAF)
		got, gotMisses, eng := engineRun(t, e, seqs, pages, 1, 1, eval.BAF)
		eng.Close()
		if gotMisses != wantMisses {
			t.Errorf("pages=%d: engine misses %d, serial %d", pages, gotMisses, wantMisses)
		}
		if len(got) != len(want) {
			t.Fatalf("pages=%d: %d results, want %d", pages, len(got), len(want))
		}
		for i := range want {
			if got[i].PagesRead != want[i].PagesRead {
				t.Errorf("pages=%d job %d: PagesRead %d, want %d", pages, i, got[i].PagesRead, want[i].PagesRead)
			}
			if got[i].EntriesProcessed != want[i].EntriesProcessed {
				t.Errorf("pages=%d job %d: Entries %d, want %d", pages, i, got[i].EntriesProcessed, want[i].EntriesProcessed)
			}
			if !sameTop(got[i].Top, want[i].Top) {
				t.Errorf("pages=%d job %d: rankings differ", pages, i)
			}
		}
	}
}

// TestParallelDFDeterministic: under DF with an ample pool (no
// evictions) results do not depend on interleaving, and single-flight
// loading makes total misses exactly the number of distinct pages —
// so an 8-worker sharded run must agree with the serial run on every
// ranking and on total reads.
func TestParallelDFDeterministic(t *testing.T) {
	e := testEnv(t)
	seqs := e12Seqs(t, e)
	ample := e.Idx.NumPagesTotal + 8
	want, wantMisses := serialRun(t, e, seqs, ample, eval.DF)
	got, gotMisses, eng := engineRun(t, e, seqs, ample, 8, 8, eval.DF)
	defer eng.Close()
	if gotMisses != wantMisses {
		t.Errorf("engine misses %d, serial %d", gotMisses, wantMisses)
	}
	for i := range want {
		if !sameTop(got[i].Top, want[i].Top) {
			t.Errorf("job %d: rankings differ under parallel DF", i)
		}
		if got[i].PagesProcessed != want[i].PagesProcessed {
			t.Errorf("job %d: PagesProcessed %d, want %d", i, got[i].PagesProcessed, want[i].PagesProcessed)
		}
	}
	st := eng.Counters()
	if st.Queries != int64(len(got)) {
		t.Errorf("Queries counter %d, want %d", st.Queries, len(got))
	}
	var reads int64
	for _, r := range got {
		reads += int64(r.PagesRead)
	}
	if st.PagesRead != reads {
		t.Errorf("PagesRead counter %d, want %d", st.PagesRead, reads)
	}
}

// TestPerUserOrdering: one user's jobs execute in submission order even
// on a many-worker engine (they chain), so a refinement sequence run
// through 4 workers over the same single-latch pool must match a
// serial run of that user alone, even under eviction pressure.
func TestPerUserOrdering(t *testing.T) {
	e := testEnv(t)
	seq, err := e.Sequence(0, refine.AddOnly)
	if err != nil {
		t.Fatal(err)
	}
	seqs := []*refine.Sequence{seq}
	want, wantMisses := serialRun(t, e, seqs, 40, eval.BAF)
	got, gotMisses, eng := engineRun(t, e, seqs, 40, 4, 1, eval.BAF)
	eng.Close()
	if gotMisses != wantMisses {
		t.Errorf("engine misses %d, serial %d", gotMisses, wantMisses)
	}
	for i := range want {
		if got[i].PagesRead != want[i].PagesRead || !sameTop(got[i].Top, want[i].Top) {
			t.Errorf("refinement %d diverged from serial order", i)
		}
	}
}

// TestSubmitRace: concurrent submitters for overlapping users must not
// deadlock or trip the race detector, even on a 1-worker engine (queue
// order must stay consistent with each user's chain order).
func TestSubmitRace(t *testing.T) {
	e := testEnv(t)
	pool, err := buffer.NewShardedSharedPool(64, 4, e.Store, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{Workers: 1, Algo: eval.DF, Params: e.Params()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				// Users overlap across submitters (g%3).
				if _, err := eng.Search(g%3, e.Queries[g%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := eng.Counters(); st.Queries != 40 || st.Errors != 0 {
		t.Errorf("counters = %+v, want 40 queries, 0 errors", st)
	}
}

// TestCloseSemantics: Close is idempotent and Submit after Close fails.
func TestCloseSemantics(t *testing.T) {
	e := testEnv(t)
	pool := rapPool(t, e, 16, 1)
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{Workers: 2, Algo: eval.DF, Params: e.Params()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Search(0, e.Queries[0]); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close()
	if _, err := eng.Submit(0, e.Queries[0]); err == nil {
		t.Error("Submit after Close should fail")
	}
}

// TestConfigValidation rejects bad configurations.
func TestConfigValidation(t *testing.T) {
	e := testEnv(t)
	pool := rapPool(t, e, 16, 1)
	if _, err := engine.New(e.Idx, e.Conv, pool, engine.Config{Workers: 0, Params: e.Params()}); err == nil {
		t.Error("workers=0 should fail")
	}
	if _, err := engine.New(e.Idx, e.Conv, nil, engine.Config{Workers: 1, Params: e.Params()}); err == nil {
		t.Error("nil pool should fail")
	}
}
