package obshttp_test

// End-to-end test of the enablement contract: importing bufir/obshttp
// makes EngineConfig.Obs.Addr start a live endpoint whose /metrics
// agrees with the engine's own counters.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"bufir"
	_ "bufir/obshttp"
)

func TestEngineEndpointEndToEnd(t *testing.T) {
	col, err := bufir.GenerateCollection(bufir.TinyCollectionConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := bufir.NewIndex(col)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ix.NewEngine(bufir.EngineConfig{
		Workers: 2,
		Obs:     bufir.ObsOptions{Addr: "127.0.0.1:0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	addr := eng.ObsAddr()
	if addr == "" {
		t.Fatal("ObsAddr empty with endpoint configured")
	}

	for i := 0; i < 5; i++ {
		q, err := ix.TopicQuery(col.Topics[i%len(col.Topics)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SearchContext(context.Background(), i, q); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)

	// The scraped counters must agree with the engine's own snapshot
	// (quiescent: all searches returned before the scrape).
	stats := eng.Stats()
	for metric, want := range map[string]int64{
		"bufir_queries_total":           stats.Queries,
		"bufir_queries_completed_total": stats.Completed,
		"bufir_pages_read_total":        stats.PagesRead,
	} {
		line := fmt.Sprintf("%s %d", metric, want)
		if !strings.Contains(body, line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
	if stats.PagesRead == 0 {
		t.Error("test ran no disk reads; pages_read assertion is vacuous")
	}

	// The service histogram saw every query.
	var count int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "bufir_service_seconds_count") {
			f := strings.Fields(line)
			count, err = strconv.ParseInt(f[len(f)-1], 10, 64)
			if err != nil {
				t.Fatalf("unparseable %q: %v", line, err)
			}
		}
	}
	if count != stats.Queries {
		t.Errorf("service histogram count %d != queries %d", count, stats.Queries)
	}

	// Close tears the endpoint down.
	eng.Close()
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}
