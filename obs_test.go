package bufir

// Observability tests of the core library's in-process snapshot. The
// enablement contract (Obs.Addr without a bufir/obshttp import fails
// with ErrObsUnavailable) is pinned in internal/metrics/noimport_test.go —
// it cannot live here because this package's test binary pulls in
// internal/experiments (bench_test.go), which registers the endpoint.
// `make depgraph` separately proves net/http stays out of the
// non-test dependency graph.

import (
	"context"
	"testing"
)

// TestObsSnapshot: the snapshot is always available (no endpoint
// needed) and is consistent with the serving counters and pool stats
// at quiescence.
func TestObsSnapshot(t *testing.T) {
	col, ix := testIndex(t)
	eng, err := ix.NewEngine(EngineConfig{Workers: 2, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := eng.ObsAddr(); got != "" {
		t.Errorf("ObsAddr without endpoint = %q, want empty", got)
	}

	const n = 6
	for i := 0; i < n; i++ {
		q, err := ix.TopicQuery(col.Topics[i%len(col.Topics)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SearchContext(context.Background(), i%3, q); err != nil {
			t.Fatal(err)
		}
	}

	s := eng.Obs()
	if s.Serving.Queries != n || s.Serving.Completed != n {
		t.Errorf("snapshot counters: queries %d completed %d, want %d", s.Serving.Queries, s.Serving.Completed, n)
	}
	if s.QueueWait.Count != n || s.Service.Count != n {
		t.Errorf("histogram counts: wait %d service %d, want %d", s.QueueWait.Count, s.Service.Count, n)
	}
	if s.Service.P50() <= 0 || s.Service.P99() < s.Service.P50() {
		t.Errorf("service quantiles implausible: p50=%v p99=%v", s.Service.P50(), s.Service.P99())
	}
	if s.Serving.PagesRead != s.Buffer.Misses {
		t.Errorf("PagesRead %d != pool misses %d", s.Serving.PagesRead, s.Buffer.Misses)
	}
	if s.Engine.Workers != 2 || s.Engine.QueueDepth != 0 || s.Engine.InFlight != 0 {
		t.Errorf("gauges at quiescence: %+v", s.Engine)
	}
	if s.Buffer.Policy != string(RAP) || s.Buffer.Capacity != 64 {
		t.Errorf("buffer snapshot: %+v", s.Buffer)
	}
	occ := 0
	for _, o := range s.Buffer.ShardOccupancy {
		occ += o
	}
	if occ != s.Buffer.InUse {
		t.Errorf("shard occupancy sums to %d, InUse %d", occ, s.Buffer.InUse)
	}
	if s.Buffer.Pinned != 0 {
		t.Errorf("pinned frames at quiescence: %d", s.Buffer.Pinned)
	}
}
