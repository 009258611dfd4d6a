package experiments

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bufir"

	// Link the HTTP endpoint, as any user of ObsOptions.Addr does.
	_ "bufir/obshttp"
)

// ---------------------------------------------------------------------------
// OBS (extension) — the observability layer end to end. Two claims:
// (1) turning observation on changes nothing — the 1-worker engine
// still reproduces the serial E12 read counts bit-for-bit; and (2) the
// numbers agree with themselves across every surface — the engine's
// PagesRead counter equals the buffer pool's miss count equals the
// value scraped back from the live /metrics endpoint, and the latency
// histograms account for every executed request.
// ---------------------------------------------------------------------------

// ObsResult holds the verification sweep, the observed run's full
// snapshot, and the endpoint self-scrape.
type ObsResult struct {
	// Verification half (E12 workload, observation enabled).
	Verify []VerifyPoint

	// Observed concurrent run.
	Users       int
	Workers     int
	Shards      int
	BufferPages int
	ReadLatency time.Duration
	Queries     int
	Elapsed     time.Duration
	Addr        string
	Snap        bufir.ObsSnapshot

	// ScrapedPagesRead is bufir_pages_read_total parsed back from a
	// live GET of /metrics; Scraped reports whether the scrape worked.
	ScrapedPagesRead int64
	Scraped          bool
}

// RunObs runs the experiment: the E12 verification sweep, then a
// concurrent run of users sessions on a live engine with the HTTP
// endpoint bound to addr (":0" picks a free port), finishing with a
// self-scrape of /metrics. hold, when positive, keeps the endpoint up
// that long after the run so it can be inspected from outside (the
// address is announced on stderr).
func (e *Env) RunObs(addr string, users, workers, shards int, readLatency time.Duration, points int, hold time.Duration) (*ObsResult, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if users < 1 {
		users = 8
	}
	if workers < 1 {
		workers = 4
	}
	if shards < 1 {
		shards = 4
	}

	// --- Verification: observation on, read counts unchanged. ---
	verify, err := e.verifySweep(points, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	seqs, ws, err := e.userStream(users)
	if err != nil {
		return nil, err
	}
	out := &ObsResult{
		Verify:      verify,
		Users:       users,
		Workers:     workers,
		Shards:      shards,
		BufferPages: ws/4 + 1,
		ReadLatency: readLatency,
	}

	// --- Observed run: live engine + endpoint, then self-scrape. ---
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}
	ix.SetSimulatedReadLatency(readLatency)
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: e.evalOptions(bufir.BAF),
		Workers:     workers,
		Shards:      shards,
		BufferPages: out.BufferPages,
		Obs:         bufir.ObsOptions{Addr: addr},
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	out.Addr = eng.ObsAddr()

	start := time.Now()
	if out.Queries, err = serveRounds(eng, seqs, failOnError); err != nil {
		return nil, err
	}
	out.Elapsed = time.Since(start)
	out.Snap = eng.Obs()

	if v, err := scrapePagesRead(out.Addr); err == nil {
		out.ScrapedPagesRead = v
		out.Scraped = true
	}

	if hold > 0 {
		fmt.Fprintf(os.Stderr, "obs: endpoint live at http://%s/metrics (holding %v)\n", out.Addr, hold)
		time.Sleep(hold)
	}
	return out, nil
}

// scrapePagesRead GETs /metrics and parses bufir_pages_read_total.
func scrapePagesRead(addr string) (int64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "bufir_pages_read_total "); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("bufir_pages_read_total not in scrape")
}

// Format prints the verification table and the observability report.
func (r *ObsResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Observability layer over the concurrent engine\n\n")
	fmt.Fprintf(w, "Verification: observation on, 1-worker engine vs. serial E12 interleave (total disk reads)\n")
	if formatVerify(w, r.Verify) {
		fmt.Fprintf(w, "observed single-worker path reproduces the serial read counts exactly\n")
	}

	s := r.Snap
	sv := s.Serving
	fmt.Fprintf(w, "\nObserved run: %d queries from %d users on %d workers (%d buffer pages, %d shards, %v read latency) in %v\n",
		r.Queries, r.Users, r.Workers, r.BufferPages, r.Shards, r.ReadLatency, r.Elapsed.Round(time.Millisecond))

	fmt.Fprintf(w, "\nserving counters\n")
	fmt.Fprintf(w, "  queries %d = completed %d + timeouts %d + canceled %d + errors %d (shed %d, partials %d)\n",
		sv.Queries, sv.Completed, sv.Timeouts, sv.Canceled, sv.Errors, sv.Shed, sv.Partials)
	misses := "MISMATCH vs"
	if sv.PagesRead == s.Buffer.Misses {
		misses = "="
	}
	fmt.Fprintf(w, "  pages read %d %s buffer misses %d; pages processed %d, entries %d\n",
		sv.PagesRead, misses, s.Buffer.Misses, sv.PagesProcessed, sv.EntriesProcessed)
	fmt.Fprintf(w, "  mean service: %.0fus over all, %.0fus over completed\n",
		sv.MeanServiceMicros(), sv.MeanCompletedServiceMicros())

	fmt.Fprintf(w, "\nlatency histograms\n")
	fmt.Fprintf(w, "  %-10s  %7s  %10s  %10s  %10s  %10s\n", "", "count", "mean", "p50", "p95", "p99")
	row := func(name string, h bufir.HistogramSnapshot) {
		rnd := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
		fmt.Fprintf(w, "  %-10s  %7d  %10v  %10v  %10v  %10v\n",
			name, h.Count, rnd(h.Mean()), rnd(h.P50()), rnd(h.P95()), rnd(h.P99()))
	}
	row("queue wait", s.QueueWait)
	row("service", s.Service)

	fmt.Fprintf(w, "\ngauges at quiescence\n")
	fmt.Fprintf(w, "  engine: %d workers, queue depth %d, in-flight %d\n",
		s.Engine.Workers, s.Engine.QueueDepth, s.Engine.InFlight)
	fmt.Fprintf(w, "  buffer (%s): %d/%d pages resident, %d pinned, %d hits, %d evictions\n",
		s.Buffer.Policy, s.Buffer.InUse, s.Buffer.Capacity, s.Buffer.Pinned, s.Buffer.Hits, s.Buffer.Evictions)
	fmt.Fprintf(w, "  shard occupancy: %v\n", s.Buffer.ShardOccupancy)

	if r.Scraped {
		match := "MATCH"
		if r.ScrapedPagesRead != sv.PagesRead {
			match = "MISMATCH"
		}
		fmt.Fprintf(w, "\nendpoint http://%s/metrics self-scrape: pages_read %d vs engine counter %d (%s)\n",
			r.Addr, r.ScrapedPagesRead, sv.PagesRead, match)
	} else {
		fmt.Fprintf(w, "\nendpoint self-scrape failed (address %s)\n", r.Addr)
	}
}
