package bufir

// Concurrency stress tests for the Engine (run with -race): many
// goroutines driving interleaved ADD-ONLY refinement sequences against
// one shared pool must produce exactly the serial run's disk reads and
// per-user rankings. Determinism rests on three facts: DF's results
// never depend on buffer contents, an ample pool never evicts, and
// single-flight loading charges each distinct page exactly one miss no
// matter how many sessions request it concurrently.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// addOnlySteps builds the user's ADD-ONLY refinement sequence: the
// topic query introduced one term at a time.
func addOnlySteps(q Query) []Query {
	steps := make([]Query, 0, len(q))
	for i := 1; i <= len(q); i++ {
		steps = append(steps, q[:i])
	}
	return steps
}

// runUsers executes every user's steps in order and returns rankings
// indexed [user][step] plus the pool's total misses. When conc is
// true, each user runs on its own goroutine (16 goroutines); otherwise
// users run one after another on a single-worker engine.
func runUsers(t *testing.T, ix *Index, steps [][]Query, conc bool) ([][][]ScoredDoc, int64) {
	t.Helper()
	cfg := EngineConfig{EvalOptions: EvalOptions{Algorithm: DF}, Workers: 1, Shards: 1, BufferPages: 8192}
	if conc {
		cfg.Workers, cfg.Shards = 8, 8
	}
	eng, err := ix.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rankings := make([][][]ScoredDoc, len(steps))
	for u := range rankings {
		rankings[u] = make([][]ScoredDoc, len(steps[u]))
	}
	run := func(u int) error {
		for i, q := range steps[u] {
			res, err := eng.SearchContext(context.Background(), u, q)
			if err != nil {
				return fmt.Errorf("user %d step %d: %w", u, i, err)
			}
			if len(res.Top) == 0 {
				return fmt.Errorf("user %d step %d: empty results", u, i)
			}
			rankings[u][i] = res.Top
		}
		return nil
	}
	if conc {
		errs := make(chan error, len(steps))
		var wg sync.WaitGroup
		for u := range steps {
			wg.Add(1)
			go func(u int) {
				defer wg.Done()
				errs <- run(u)
			}(u)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for u := range steps {
			if err := run(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rankings, eng.BufferStats().Misses
}

// TestEngineStressDeterministic: 16 goroutines, one per user, each
// refining its query step by step against an 8-worker engine over an
// 8-shard pool. Total disk reads and every per-user ranking must equal
// the serial single-worker run.
func TestEngineStressDeterministic(t *testing.T) {
	col, ix := testIndex(t)
	const users = 16
	steps := make([][]Query, users)
	for u := 0; u < users; u++ {
		q, err := ix.TopicQuery(col.Topics[u%len(col.Topics)])
		if err != nil {
			t.Fatal(err)
		}
		steps[u] = addOnlySteps(q)
	}

	wantRank, wantReads := runUsers(t, ix, steps, false)
	gotRank, gotReads := runUsers(t, ix, steps, true)

	if gotReads != wantReads {
		t.Errorf("concurrent run read %d pages, serial run %d", gotReads, wantReads)
	}
	for u := range wantRank {
		for i := range wantRank[u] {
			w, g := wantRank[u][i], gotRank[u][i]
			if len(w) != len(g) {
				t.Fatalf("user %d step %d: %d results, want %d", u, i, len(g), len(w))
			}
			for k := range w {
				if w[k].Doc != g[k].Doc || w[k].Score != g[k].Score {
					t.Fatalf("user %d step %d rank %d: got doc %d (%.6f), want doc %d (%.6f)",
						u, i, k, g[k].Doc, g[k].Score, w[k].Doc, w[k].Score)
				}
			}
		}
	}
}

// TestEngineSharedPoolCrossUserHits: users on overlapping topics must
// benefit from each other's pages (the point of §3.3's shared pool):
// concurrent users all get answers, and a fresh user re-running topic 0
// afterwards hits the buffer — reading at most half the pages it
// processes when the pool holds every topic's working set (warm). The
// inputs cover many workers over a sharded pool, several goroutines
// contending for a small pool on three topics, and the serial two-user
// warm-up.
func TestEngineSharedPoolCrossUserHits(t *testing.T) {
	col, _ := testIndex(t)
	cases := []struct {
		name                          string
		workers, shards, pages, users int
		rounds, topics                int
		warm                          bool
	}{
		{"one topic, 4 workers x 4 shards", 4, 4, 256, 8, 5, 1, true},
		{"three topics, 4 workers", 4, 1, 96, 4, 10, 3, false},
		{"two topics, one pass", 1, 1, 128, 2, 1, 2, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, ix := testIndex(t)
			eng, err := ix.NewEngine(EngineConfig{EvalOptions: EvalOptions{Algorithm: BAF},
				Workers: c.workers, Shards: c.shards, BufferPages: c.pages})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ctx := context.Background()
			var wg sync.WaitGroup
			for u := 0; u < c.users; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					q, err := ix.TopicQuery(col.Topics[u%c.topics])
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < c.rounds; i++ {
						res, err := eng.SearchContext(ctx, u, q)
						if err != nil {
							t.Error(err)
							return
						}
						if len(res.Top) == 0 {
							t.Errorf("user %d: empty results", u)
							return
						}
					}
				}(u)
			}
			wg.Wait()

			q0, err := ix.TopicQuery(col.Topics[0])
			if err != nil {
				t.Fatal(err)
			}
			before := eng.BufferStats()
			res, err := eng.SearchContext(ctx, c.users, q0)
			if err != nil {
				t.Fatal(err)
			}
			if eng.BufferStats().Hits == before.Hits {
				t.Error("no cross-user buffer hits on a repeated topic")
			}
			if c.warm && res.PagesRead > res.PagesProcessed/2 {
				t.Errorf("warm cross-user query read %d of %d pages", res.PagesRead, res.PagesProcessed)
			}
			want := int64(c.users*c.rounds + 1)
			if es := eng.Stats(); es.Queries != want || es.Errors != 0 {
				t.Errorf("serving counters = %+v, want %d queries, 0 errors", es, want)
			}
		})
	}
}

// gateStore parks every counted read until the test opens the gate,
// announcing the page first: started is the test's view of which loads
// are in flight inside the buffer manager.
type gateStore struct {
	storage.PageStore
	started  chan postings.PageID
	open     chan struct{}
	openOnce sync.Once
}

// release opens the gate for every parked and future read.
func (s *gateStore) release() { s.openOnce.Do(func() { close(s.open) }) }

func (s *gateStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	s.started <- id
	select {
	case <-s.open:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.PageStore.ReadContext(ctx, id)
}

// gatedEngine republishes ix's current generation over a gateStore and
// builds a Shards: 1, Workers: 2 engine on it.
func gatedEngine(t *testing.T, ix *Index) (*Engine, *gateStore) {
	t.Helper()
	v := *ix.view()
	gate := &gateStore{PageStore: v.store, started: make(chan postings.PageID, 64), open: make(chan struct{})}
	v.store = gate
	ix.publish(&v)
	eng, err := ix.NewEngine(EngineConfig{EvalOptions: EvalOptions{Algorithm: DF, Unfiltered: true}, Workers: 2, Shards: 1, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gate.release() // a failed test must not leave workers parked
		eng.Close()
	})
	return eng, gate
}

// awaitStarted returns the next page whose load reached the store.
func awaitStarted(t *testing.T, gate *gateStore) postings.PageID {
	t.Helper()
	select {
	case id := <-gate.started:
		return id
	case <-time.After(5 * time.Second):
		t.Fatal("no further load reached the store: a second worker is stuck behind the first one's read")
		return 0
	}
}

// TestOneShardOverlapsLoads: Shards is only the latch count. With one
// shard and two workers, the loads of two different pages are inside
// the store at the same time — the latch is not held across the read.
func TestOneShardOverlapsLoads(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	eng, gate := gatedEngine(t, ix)
	var tickets []*Ticket
	for u := 0; u < 2; u++ { // one single-term query per user, different terms
		tk, err := eng.SubmitContext(context.Background(), u, q[u:u+1])
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	a, b := awaitStarted(t, gate), awaitStarted(t, gate)
	if a == b {
		t.Fatalf("page %d was read twice at once", a)
	}
	gate.release()
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneShardSingleFlight: two users asking for the same list while
// its pages load cost one store read per page, not two.
func TestOneShardSingleFlight(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	eng, gate := gatedEngine(t, ix)
	var tickets []*Ticket
	for u := 0; u < 2; u++ {
		tk, err := eng.SubmitContext(context.Background(), u, q[:1])
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	awaitStarted(t, gate)
	// Hold the first load until both requests are with a worker, so the
	// second meets the page mid-load (or, at the latest, just loaded).
	for deadline := time.Now().Add(5 * time.Second); eng.Obs().Engine.InFlight < 2; {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached a worker")
		}
		time.Sleep(100 * time.Microsecond)
	}
	gate.release()
	pagesRead := 0
	for _, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		pagesRead += res.PagesRead
	}
	pages := int64(ix.TermPages(q[0].Term))
	if got := gate.Reads(); got != pages {
		t.Errorf("store reads = %d, want %d (one per page of the list)", got, pages)
	}
	if int64(pagesRead) != pages {
		t.Errorf("the two results report %d pages read, want %d between them", pagesRead, pages)
	}
}
