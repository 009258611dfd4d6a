package bufir

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"bufir/internal/eval"
	"bufir/internal/refine"
)

// stripVolatile returns a copy of the result with wall-clock fields
// zeroed, leaving only the deterministic evaluation outcome.
func stripVolatile(res *Result) *Result {
	if res == nil {
		return nil
	}
	out := *res
	out.Elapsed = 0
	out.Trace = append([]eval.TermTrace(nil), res.Trace...)
	for i := range out.Trace {
		out.Trace[i].Elapsed = 0
	}
	return &out
}

// checkOutcomeInvariant asserts the serving-counter invariant: every
// executed request lands in exactly one outcome bucket.
func checkOutcomeInvariant(t *testing.T, name string, s EngineStats) {
	t.Helper()
	sum := s.Completed + s.Timeouts + s.Canceled + s.Errors + s.Degraded
	if s.Queries != sum {
		t.Errorf("%s: Queries = %d, outcome buckets sum to %d (completed %d timeouts %d canceled %d errors %d degraded %d)",
			name, s.Queries, sum, s.Completed, s.Timeouts, s.Canceled, s.Errors, s.Degraded)
	}
	if s.Partials > s.Timeouts {
		t.Errorf("%s: Partials %d > Timeouts %d", name, s.Partials, s.Timeouts)
	}
}

// e12Workload replays the E12 concurrency workload shape — four users
// on topics [0 1 0 1], each walking a growing refinement sequence —
// as an ordered (user, query) stream.
func e12Workload(t *testing.T, col *Collection, ix *Index) [][2]interface{} {
	t.Helper()
	userTopics := []int{0, 1, 0, 1}
	var seqs [][]Query
	for _, ti := range userTopics {
		fullQ, err := ix.TopicQuery(col.Topics[ti])
		if err != nil {
			t.Fatal(err)
		}
		seq, err := feedbackSequence(ix, fullQ[:1], refine.FeedbackOptions{Rounds: 3, AddPerRound: 2})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq.Refinements)
	}
	var stream [][2]interface{}
	for step := 0; ; step++ {
		any := false
		for u, seq := range seqs {
			if step < len(seq) {
				stream = append(stream, [2]interface{}{u, seq[step]})
				any = true
			}
		}
		if !any {
			break
		}
	}
	return stream
}

// A single-shard Router must be a transparent proxy: on the E12
// workload every Result coming back through the router is bit-identical
// to the direct Engine's (wall-clock fields aside), for both
// algorithms.
func TestRouterSingleShardIdenticalE12(t *testing.T) {
	col, ixA := testIndex(t)
	_, ixB := testIndex(t)
	stream := e12Workload(t, col, ixA)
	for _, tc := range []struct {
		name string
		algo Algorithm
	}{{"DF", DF}, {"BAF", BAF}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := EngineConfig{EvalOptions: EvalOptions{Algorithm: tc.algo}, Workers: 1, BufferPages: 64, Policy: RAP}
			direct, err := ixA.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			backend, err := ixB.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			router, err := NewRouter([]Searcher{backend}, RouterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			for i, req := range stream {
				user, q := req[0].(int), req[1].(Query)
				want, errA := direct.SearchContext(context.Background(), user, q)
				got, errB := router.SearchContext(context.Background(), user, q)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("step %d: direct err %v, routed err %v", i, errA, errB)
				}
				if !reflect.DeepEqual(stripVolatile(want), stripVolatile(got)) {
					t.Fatalf("step %d (user %d): routed result differs from direct\ndirect: %+v\nrouted: %+v",
						i, user, stripVolatile(want), stripVolatile(got))
				}
			}
			ds, rs := direct.Stats(), router.Stats()
			if ds.Queries != rs.Queries || ds.Completed != rs.Completed {
				t.Errorf("stats diverge: direct %d/%d, routed %d/%d", ds.Queries, ds.Completed, rs.Queries, rs.Completed)
			}
			checkOutcomeInvariant(t, "router", rs)
		})
	}
}

// Merged unfiltered top-k over N partitions must equal single-index
// top-k exactly — same documents, bit-identical scores — for every
// partition count and buffer size: the partitions carry the global
// statistics, so sharding changes page layout, never scores.
func TestRouterMergeEqualsSingleIndex(t *testing.T) {
	col, ix := testIndex(t)
	const topN = 10
	single, err := ix.NewEngine(EngineConfig{
		EvalOptions: EvalOptions{Algorithm: DF, Unfiltered: true, TopN: topN},
		BufferPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, n := range []int{2, 3, 5} {
		for _, bufPages := range []int{8, 32, 128} {
			parts, err := ix.Shard(n)
			if err != nil {
				t.Fatal(err)
			}
			backends := make([]Searcher, n)
			for i, p := range parts {
				eng, err := p.NewEngine(EngineConfig{
					EvalOptions: EvalOptions{Algorithm: DF, Unfiltered: true, TopN: topN},
					BufferPages: bufPages,
				})
				if err != nil {
					t.Fatal(err)
				}
				backends[i] = eng
			}
			router, err := NewRouter(backends, RouterConfig{TopN: topN})
			if err != nil {
				t.Fatal(err)
			}
			for ti, topic := range col.Topics {
				q, err := ix.TopicQuery(topic)
				if err != nil {
					t.Fatal(err)
				}
				want, err := single.SearchContext(context.Background(), 0, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := router.SearchContext(context.Background(), 0, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Top) != len(want.Top) {
					t.Fatalf("n=%d buf=%d topic %d: merged %d docs, single %d", n, bufPages, ti, len(got.Top), len(want.Top))
				}
				for i := range want.Top {
					if got.Top[i].Doc != want.Top[i].Doc || got.Top[i].Score != want.Top[i].Score {
						t.Fatalf("n=%d buf=%d topic %d rank %d: merged (%d, %v), single (%d, %v)",
							n, bufPages, ti, i, got.Top[i].Doc, got.Top[i].Score, want.Top[i].Doc, want.Top[i].Score)
					}
				}
			}
			if err := router.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// Filtered evaluation prunes against a per-shard S_max that can only
// lag the global one, so a filtered merge is still a legal anytime
// ranking: sorted by score with the deterministic tie-break, no
// duplicate documents, never larger than TopN.
func TestRouterMergeFilteredLegalRanking(t *testing.T) {
	col, ix := testIndex(t)
	const topN = 10
	parts, err := ix.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Searcher, len(parts))
	for i, p := range parts {
		eng, err := p.NewEngine(EngineConfig{
			EvalOptions: EvalOptions{Algorithm: BAF, TopN: topN},
			BufferPages: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = eng
	}
	router, err := NewRouter(backends, RouterConfig{TopN: topN})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for ti, topic := range col.Topics {
		q, err := ix.TopicQuery(topic)
		if err != nil {
			t.Fatal(err)
		}
		res, err := router.SearchContext(context.Background(), 0, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Top) == 0 || len(res.Top) > topN {
			t.Fatalf("topic %d: merged %d docs", ti, len(res.Top))
		}
		seen := map[DocID]bool{}
		for i, d := range res.Top {
			if seen[d.Doc] {
				t.Fatalf("topic %d: duplicate doc %d in merge", ti, d.Doc)
			}
			seen[d.Doc] = true
			if i > 0 {
				prev := res.Top[i-1]
				if d.Score > prev.Score || (d.Score == prev.Score && d.Doc < prev.Doc) {
					t.Fatalf("topic %d: merge order violated at rank %d", ti, i)
				}
			}
		}
	}
}

// errSearcher is a stub backend that always fails.
type errSearcher struct{ closeErr error }

var errShardDown = errors.New("shard down")

func (e *errSearcher) SearchContext(ctx context.Context, user int, q Query) (*Result, error) {
	return nil, errShardDown
}
func (e *errSearcher) Stats() EngineStats { return EngineStats{} }
func (e *errSearcher) Close() error       { return e.closeErr }

// A missing shard must degrade the answer, not fail it — unless every
// shard is missing.
func TestRouterDegradedOnMissingShard(t *testing.T) {
	col, ix := testIndex(t)
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(EngineConfig{BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	closeFailure := errors.New("close failed")
	router, err := NewRouter([]Searcher{eng, &errSearcher{closeErr: closeFailure}}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := router.SearchContext(context.Background(), 0, q)
	if err != nil {
		t.Fatalf("default tolerance: want degraded answer, got error %v", err)
	}
	if !res.Degraded {
		t.Error("missing shard did not set Degraded")
	}
	if len(res.Top) == 0 {
		t.Error("degraded answer is empty despite a live shard")
	}
	st := router.Stats()
	if st.Degraded != 1 {
		t.Errorf("Degraded counter = %d, want 1", st.Degraded)
	}
	checkOutcomeInvariant(t, "router", st)
	if err := router.Close(); !errors.Is(err, closeFailure) {
		t.Errorf("Close did not join shard close error: %v", err)
	}

	// No shard answers: the query itself errors.
	strict, err := NewRouter([]Searcher{&errSearcher{}, &errSearcher{}}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer strict.Close()
	if _, err := strict.SearchContext(context.Background(), 0, q); !errors.Is(err, errShardDown) {
		t.Errorf("all shards down: want wrapped shard error, got %v", err)
	}
	st = strict.Stats()
	if st.Errors != 1 {
		t.Errorf("strict Errors = %d, want 1", st.Errors)
	}
	checkOutcomeInvariant(t, "strict router", st)
}

// A negative merged size or per-shard budget is refused at
// construction: a TopN of -1 used to pass and then panic in the first
// merge over two shards.
func TestRouterRejectsNegativeConfig(t *testing.T) {
	_, ix := testIndex(t)
	parts, err := ix.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Searcher, len(parts))
	for i, p := range parts {
		eng, err := p.NewEngine(EngineConfig{BufferPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		backends[i] = eng
	}
	for _, cfg := range []RouterConfig{{TopN: -1}, {ShardTimeout: -time.Millisecond}} {
		if _, err := NewRouter(backends, cfg); err == nil {
			t.Errorf("NewRouter(%+v) succeeded", cfg)
		}
	}
}

// Chaos test behind the serving invariant: a deliberately slow shard
// under a tight per-shard budget, concurrent users, and a scattering of
// canceled and tightly-deadlined parent contexts. However each request
// ends, it must land in exactly one outcome bucket — checked under
// -race by `make race`.
func TestRouterShardTimeoutChaos(t *testing.T) {
	col, ix := testIndex(t)
	parts, err := ix.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0 pays 2ms per page read against a 1ms budget: it cannot
	// answer in time, so every query should degrade (or worse).
	parts[0].SetSimulatedReadLatency(2 * time.Millisecond)
	backends := make([]Searcher, len(parts))
	for i, p := range parts {
		eng, err := p.NewEngine(EngineConfig{BufferPages: 8, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = eng
	}
	router, err := NewRouter(backends, RouterConfig{ShardTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const users, perUser = 8, 5
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			q, err := ix.TopicQuery(col.Topics[u%len(col.Topics)])
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perUser; i++ {
				switch i % 3 {
				case 0: // plain request under the shard budget only
					router.SearchContext(context.Background(), u, q)
				case 1: // parent canceled before the fan-out
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					router.SearchContext(ctx, u, q)
				case 2: // parent deadline tighter than any shard
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Microsecond)
					router.SearchContext(ctx, u, q)
					cancel()
				}
			}
		}(u)
	}
	wg.Wait()

	st := router.Stats()
	if st.Queries != users*perUser {
		t.Fatalf("Queries = %d, want %d", st.Queries, users*perUser)
	}
	checkOutcomeInvariant(t, "router", st)
	if st.Degraded == 0 {
		t.Error("slow shard under tight budget never degraded a query")
	}
	if st.Canceled == 0 {
		t.Error("pre-canceled parents never counted as Canceled")
	}
	for i, s := range backends {
		checkOutcomeInvariant(t, "shard "+string(rune('0'+i)), s.Stats())
	}
}

// Router aggregates its backends' observability snapshots into one
// deployment snapshot with per-shard gauges.
func TestRouterObsSnapshot(t *testing.T) {
	col, ix := testIndex(t)
	parts, err := ix.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Searcher, len(parts))
	for i, p := range parts {
		eng, err := p.NewEngine(EngineConfig{BufferPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = eng
	}
	router, err := NewRouter(backends, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	q, err := ix.TopicQuery(col.Topics[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := router.SearchContext(context.Background(), 0, q); err != nil {
		t.Fatal(err)
	}
	snap := router.ObsSnapshot()
	if len(snap.Shards) != 2 {
		t.Fatalf("snapshot has %d shard gauges, want 2", len(snap.Shards))
	}
	for i, sg := range snap.Shards {
		if sg.Shard != i {
			t.Errorf("gauge %d labeled shard %d", i, sg.Shard)
		}
		if sg.Queries != 1 {
			t.Errorf("shard %d Queries = %d, want 1", i, sg.Queries)
		}
		if sg.BufferMisses < 0 {
			t.Errorf("shard %d BufferMisses unavailable for an Engine backend", i)
		}
	}
	if snap.Buffer.Capacity != 32 {
		t.Errorf("aggregated buffer capacity = %d, want 32", snap.Buffer.Capacity)
	}
	if snap.Serving.Queries != 1 {
		t.Errorf("router serving Queries = %d, want 1", snap.Serving.Queries)
	}
}

// TestRouterBucketsPartialAsEngine: a router files a request in the
// same outcome bucket as the engine behind it. Under PartialOnDeadline
// an expired request's anytime answer comes back with a nil error and
// Partial set; the engine counts it as a timeout with a partial, and a
// 1-shard router over it must too, not as a completed request.
func TestRouterBucketsPartialAsEngine(t *testing.T) {
	col, ix := testIndex(t)
	// A read takes twice the deadline, so a query that misses is cut
	// mid-scan and returns a partial answer. (A 1 ns deadline would
	// expire before evaluation starts and leave no answer at all.)
	ix.SetSimulatedReadLatency(2 * time.Millisecond)
	eng, err := ix.NewEngine(EngineConfig{
		Workers: 1, BufferPages: 64,
		QueryTimeout: time.Millisecond,
		OnDeadline:   PartialOnDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]Searcher{eng}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 40; i++ {
		q, err := ix.TopicQuery(col.Topics[i%len(col.Topics)])
		if err != nil {
			t.Fatal(err)
		}
		_, _ = r.SearchContext(context.Background(), i%4, q)
	}
	got, want := r.Stats(), eng.Stats()
	checkOutcomeInvariant(t, "router", got)
	buckets := func(s EngineStats) [7]int64 {
		return [7]int64{s.Queries, s.Completed, s.Timeouts, s.Partials, s.Canceled, s.Errors, s.Degraded}
	}
	if buckets(got) != buckets(want) {
		t.Errorf("router buckets %v, engine %v (queries completed timeouts partials canceled errors degraded)",
			buckets(got), buckets(want))
	}
}
