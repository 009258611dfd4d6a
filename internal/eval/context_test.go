package eval

import (
	"context"
	"errors"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
)

// cancelAfterPool cancels the request's context once n pages have been
// fetched, simulating a caller withdrawing mid-scan at an exact,
// deterministic page boundary.
type cancelAfterPool struct {
	buffer.Pool
	cancel context.CancelFunc
	n      int
	count  int
}

func (p *cancelAfterPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	p.count++
	if p.count > p.n {
		p.cancel()
	}
	return p.Pool.FetchContext(ctx, id)
}

// TestCancelMidScanReturnsPartial: a context canceled mid-term-scan
// yields the anytime answer — Partial set, the interrupted term's
// trace marked Truncated, earlier terms intact, the accumulated
// ranking preserved — alongside context.Canceled, with every frame
// unpinned. The evaluator stays usable afterwards.
func TestCancelMidScanReturnsPartial(t *testing.T) {
	f := smallFixture(t)
	mgr := f.newPool(t, 64, buffer.NewLRU())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// DF order is gamma (1 page), beta (2), alpha (3); canceling after
	// 4 fetches interrupts alpha after its first page.
	pool := &cancelAfterPool{Pool: mgr, cancel: cancel, n: 4}
	ev, err := NewEvaluator(f.ix, pool, f.conv, fullParams())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 1}, {Term: 2, Fqt: 1}}
	res, err := ev.EvaluateContext(ctx, DF, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || !res.Partial {
		t.Fatal("want the partial result alongside the context error")
	}
	if len(res.Trace) == 0 {
		t.Fatal("partial result lost its trace")
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Name != "alpha" || !last.Truncated {
		t.Errorf("last trace entry = %+v, want truncated alpha", last)
	}
	for _, tr := range res.Trace[:len(res.Trace)-1] {
		if tr.Truncated {
			t.Errorf("term %q marked truncated before the cancel", tr.Name)
		}
	}
	if len(res.Top) == 0 {
		t.Error("partial result dropped the accumulated ranking")
	}
	if res.PagesRead != 4 {
		t.Errorf("PagesRead = %d, want the 4 delivered pages", res.PagesRead)
	}
	if n := mgr.PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after the canceled evaluation", n)
	}
	// A fresh context evaluates normally on the same evaluator.
	res2, err := ev.Evaluate(DF, q)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Partial {
		t.Error("follow-up evaluation inherited the Partial flag")
	}
}

// TestPreCanceledContextSkipsRegistry: a request that is dead on
// arrival returns before announcing its query, so the shared registry
// never sees it.
func TestPreCanceledContextSkipsRegistry(t *testing.T) {
	f := smallFixture(t)
	sp, err := buffer.NewShardedSharedPool(16, 1, f.store, f.ix, func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		t.Fatal(err)
	}
	view := sp.UserView(0)
	ev, err := NewEvaluator(f.ix, view, f.conv, fullParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ev.EvaluateContext(ctx, DF, Query{{Term: 0, Fqt: 1}})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-canceled: res=%v err=%v, want nil result and Canceled", res, err)
	}
	if n := sp.ActiveUsers(); n != 0 {
		t.Errorf("dead request registered itself: %d active users", n)
	}
}

// announceCounter counts the query announcements a pool receives.
type announceCounter struct {
	buffer.Pool
	n int
}

func (p *announceCounter) SetQuery(w buffer.QueryWeights) {
	p.n++
	p.Pool.SetQuery(w)
}

// TestUnknownAlgorithmSkipsRegistry: a request for an algorithm that
// does not exist fails before announcing its query, so it cannot
// re-key the shared pool for everyone else.
func TestUnknownAlgorithmSkipsRegistry(t *testing.T) {
	f := smallFixture(t)
	pool := &announceCounter{Pool: f.newPool(t, 8, buffer.NewRAP())}
	ev, err := NewEvaluator(f.ix, pool, f.conv, fullParams())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{{Term: 0, Fqt: 1}}
	if res, err := ev.Evaluate(Algorithm(42), q); err == nil || res != nil {
		t.Fatalf("Algorithm(42): res=%v err=%v, want an error and no result", res, err)
	}
	if pool.n != 0 {
		t.Errorf("unknown algorithm announced its query %d times", pool.n)
	}
	if _, err := ev.Evaluate(DF, q); err != nil || pool.n != 1 {
		t.Errorf("DF: err=%v, %d announcements, want one", err, pool.n)
	}
}

// TestEmptyQuerySentinel: the empty-query failure is a sentinel
// matchable with errors.Is.
func TestEmptyQuerySentinel(t *testing.T) {
	f := smallFixture(t)
	ev := f.evaluator(t, 8, buffer.NewLRU(), fullParams())
	if _, err := ev.Evaluate(DF, nil); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("nil query: err = %v, want ErrEmptyQuery", err)
	}
	if _, err := ev.Evaluate(DF, Query{}); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query: err = %v, want ErrEmptyQuery", err)
	}
}

// TestWarmEvaluationAllocates: on a pool that holds every page, once
// the scratch pool is warm, an evaluation allocates at most what it
// returns — its Result, Trace and Top — under DF, BAF and MAXSCORE,
// while its announcements alternate between two queries and so re-key
// RAP each time. Skipped under -race, whose sync.Pool drops items at
// random.
func TestWarmEvaluationAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	env := loadGoldenEnv(t, "corpus")
	ev := env.evaluator(t, env.ix.NumPagesTotal, buffer.NewRAP(), TunedParams())
	for id := 0; id < env.ix.NumPagesTotal; id++ {
		frame, _, err := ev.Buf.FetchContext(context.Background(), postings.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		ev.Buf.Unpin(frame)
	}
	queries := []Query{env.query(8), env.query(9)}
	for _, algo := range []Algorithm{DF, BAF, MAXSCORE} {
		i := 0
		evaluate := func() {
			res, err := ev.Evaluate(algo, queries[i%2])
			if err != nil || res.PagesRead != 0 || len(res.Top) == 0 {
				t.Fatalf("%v: err %v, %d pages read, %d answers", algo, err, res.PagesRead, len(res.Top))
			}
			i++
		}
		evaluate()
		evaluate()
		if n := testing.AllocsPerRun(50, evaluate); n > 3 {
			t.Errorf("%v: %v allocations per warm evaluation, want at most 3", algo, n)
		}
	}
}
