package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bufir/internal/metrics"
)

// fakeSource returns a fixed snapshot with one known value per metric
// family, so the rendered text can be asserted exactly.
type fakeSource struct{ snap metrics.Snapshot }

func (f fakeSource) ObsSnapshot() metrics.Snapshot { return f.snap }

func testSnapshot() metrics.Snapshot {
	var h metrics.Histogram
	h.Observe(1 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(40 * time.Millisecond)
	return metrics.Snapshot{
		Serving: metrics.ServingSnapshot{
			Queries: 10, Completed: 7, Timeouts: 2, Partials: 1, Canceled: 1,
			PagesRead: 123, PagesProcessed: 456, EntriesProcessed: 789,
			Shed: 3,
		},
		Engine: metrics.EngineGauges{Workers: 4, QueueDepth: 2, InFlight: 4},
		Buffer: metrics.BufferSnapshot{
			Policy: "RAP", Capacity: 64, InUse: 60, Pinned: 3,
			Hits: 1000, Misses: 123, Evictions: 59,
			ShardOccupancy: []int{30, 30},
		},
		QueueWait: h.Snapshot(),
		Service:   h.Snapshot(),
	}
}

func get(t *testing.T, srv *httptest.Server, path string) (string, *http.Response) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return string(body), resp
}

// TestMetricsEndpoint: /metrics renders the Prometheus text format
// with the snapshot's exact counter values, labeled evictions, shard
// gauges, and well-formed cumulative histograms.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(handler(fakeSource{testSnapshot()}))
	defer srv.Close()

	body, resp := get(t, srv, "/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	for _, want := range []string{
		"bufir_pages_read_total 123",
		"bufir_queries_total 10",
		"bufir_queries_completed_total 7",
		"bufir_timeouts_total 2",
		"bufir_shed_total 3",
		"bufir_buffer_evictions_total{policy=\"RAP\"} 59",
		"bufir_buffer_shard_resident_pages{shard=\"1\"} 30",
		"bufir_queue_wait_seconds_count 3",
		"bufir_service_seconds_bucket{le=\"+Inf\"} 3",
		"# TYPE bufir_service_seconds histogram",
		"# TYPE bufir_queue_depth gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Cumulative buckets must be monotone and end at the count.
	var last int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "bufir_service_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not monotone: %d after %d in %q", v, last, line)
		}
		last = v
	}
	if last != 3 {
		t.Errorf("final cumulative bucket = %d, want 3", last)
	}
}

// TestStatuszEndpoint: /statusz returns the snapshot as JSON that
// round-trips into an metrics.Snapshot.
func TestStatuszEndpoint(t *testing.T) {
	srv := httptest.NewServer(handler(fakeSource{testSnapshot()}))
	defer srv.Close()

	body, resp := get(t, srv, "/statusz")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("statusz is not valid snapshot JSON: %v", err)
	}
	if snap.Serving.PagesRead != 123 || snap.Buffer.Policy != "RAP" {
		t.Errorf("statusz round-trip lost data: %+v", snap)
	}
}

// TestPprofEndpoint: the pprof index and a cheap profile respond on
// the private mux.
func TestPprofEndpoint(t *testing.T) {
	srv := httptest.NewServer(handler(fakeSource{testSnapshot()}))
	defer srv.Close()

	body, resp := get(t, srv, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d, body lacks profile list", resp.StatusCode)
	}
	_, resp = get(t, srv, "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// TestHealthz: liveness probe.
func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(handler(fakeSource{testSnapshot()}))
	defer srv.Close()
	body, resp := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: status %d body %q", resp.StatusCode, body)
	}
}

// TestRealServerLifecycle: newServer binds :0, serves, registers with the
// obs hook, and Close is idempotent.
func TestRealServerLifecycle(t *testing.T) {
	s, err := metrics.StartHTTPServer("127.0.0.1:0", fakeSource{testSnapshot()})
	if err != nil {
		t.Fatalf("StartHTTPServer (hook should be registered by this package's init): %v", err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "bufir_pages_read_total 123") {
		t.Error("live /metrics lacks pages_read counter")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/metrics"); err == nil {
		t.Error("server still serving after Close")
	}
}
