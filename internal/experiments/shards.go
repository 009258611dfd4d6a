package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"time"

	"bufir"
)

// ---------------------------------------------------------------------------
// E25 (extension) — serving-tier scaling: the same E21-style
// multi-user refinement workload pushed through the public
// scatter-gather Router at increasing shard counts, with a simulated
// per-read disk latency putting the system in the I/O-bound regime the
// paper's cost model describes. What scales is parallel I/O: a query's list pages
// are spread over n independent stores and engines, so its reads
// overlap n ways, and the per-shard worker pools multiply.
//
// Buffer sizing follows the shared-nothing model of a real
// document-partitioned deployment: every shard gets the E21 ratio — a
// quarter of ITS OWN working set — as if each partition were a node
// with its own memory. Sizing against the post-split working set matters
// because partitioning fragments pages (a 10-page list split 8 ways
// refills into 8 partially-empty pages), so a shard's page count is
// more than 1/n of the source's; the reported buffer_pages and
// pages_read columns show that amplification explicitly rather than
// hiding it in a thrashing shared budget.
//
// The sweep evaluates UNFILTERED: total page work is then invariant in
// the partition layout (every query touches every page of its terms,
// wherever they live), so the numbers isolate the serving tier's
// parallelism, and the exact results double as a cross-count
// verification — every shard count must return the identical top-k.
// Filtered evaluation over shards is measured the other way around: it
// is a correctness property (per-shard S_max lags the global one, so
// shards filter less aggressively and stay legal), covered by the
// router test suite, and its extra page reads are a cost of sharding,
// not a serving-tier speedup to report.
//
// The sweep's n engines get n times the frames and workers of one, so
// its speedup alone does not say whether partitioning helps. Every
// shard count therefore also gets the fair row: one engine over the
// unsplit index with the sum of the per-shard frames, n times the
// workers and the same read latency, serving the same stream and held
// to the same exact top-k.
// ---------------------------------------------------------------------------

// shardsRow is one shard count's measurement.
type shardsRow struct {
	Shards        int     `json:"shards"`
	Queries       int64   `json:"queries"`
	BufferPages   int     `json:"buffer_pages"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	QPS           float64 `json:"qps"`
	P50Micros     float64 `json:"p50_us"`
	P99Micros     float64 `json:"p99_us"`
	PagesRead     int64   `json:"pages_read"`
	Degraded      int64   `json:"degraded"`
	Speedup       float64 `json:"speedup"`
}

// onePoolRow is the fair row for one shard count: one engine over the
// unsplit index with the split deployment's total frames and workers.
type onePoolRow struct {
	shardsRow
	Workers int `json:"workers"`
	// VsSplit is the row's QPS over the split deployment's at the same
	// shard count.
	VsSplit float64 `json:"vs_split"`
}

// ShardsResult is the E25 sweep outcome.
type ShardsResult struct {
	Workload      string      `json:"workload"`
	Users         int         `json:"users"`
	WorkersPerID  int         `json:"workers_per_shard"`
	ReadLatencyUS int64       `json:"read_latency_us"`
	CPUs          int         `json:"cpus"`
	Rows          []shardsRow `json:"rows"`
	// OnePool holds the fair row of every shard count, in Rows' order.
	OnePool []onePoolRow `json:"one_pool"`
}

// RunShards runs the sweep: users concurrent sessions, each walking
// its topic's ADD-ONLY refinement sequence passes times, against a
// router over counts[i] shards.
func (e *Env) RunShards(users, workersPerShard, passes int, counts []int, lat time.Duration) (*ShardsResult, error) {
	// The E12 stream, with every user walking only the first
	// refinements of their sequence (the sweep multiplies the workload
	// by |counts| shard deployments, so it trims the sequence tails to
	// stay CI-sized).
	const maxRefinements = 4
	stream, _, err := e.userStream(users)
	if err != nil {
		return nil, err
	}
	seqs := make([][]bufir.Query, users)
	for u, s := range stream {
		seqs[u] = s.Refinements[:min(len(s.Refinements), maxRefinements)]
	}
	// The workload's term union, for sizing each shard's buffer
	// against its own local working set.
	terms := map[bufir.TermID]bool{}
	for _, seq := range seqs {
		for _, q := range seq {
			for _, qt := range q {
				terms[qt.Term] = true
			}
		}
	}

	res := &ShardsResult{
		Workload:      "E21-style multi-user ADD-ONLY refinement stream",
		Users:         users,
		WorkersPerID:  workersPerShard,
		ReadLatencyUS: lat.Microseconds(),
		CPUs:          runtime.NumCPU(),
	}
	var reference []bufir.ScoredDoc
	for _, n := range counts {
		row, top, err := e.runShardsOnce(seqs, terms, workersPerShard, passes, n, lat)
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		// Unfiltered merge is exact: every shard count must agree on
		// the verification query's full top-k, document for document,
		// bit for bit.
		if reference == nil {
			reference = top
		} else if err := sameTopK(reference, top); err != nil {
			return nil, fmt.Errorf("shards=%d: merged top-k diverges from 1-shard reference: %w", n, err)
		}
		if len(res.Rows) > 0 {
			row.Speedup = row.QPS / res.Rows[0].QPS
		} else {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, *row)

		pool, top, err := e.runOnePool(seqs, n*workersPerShard, row.BufferPages, passes, lat)
		if err != nil {
			return nil, fmt.Errorf("one pool for shards=%d: %w", n, err)
		}
		if err := sameTopK(reference, top); err != nil {
			return nil, fmt.Errorf("one pool for shards=%d: top-k diverges from the partitioned reference: %w", n, err)
		}
		pool.Shards, pool.BufferPages = n, row.BufferPages
		pool.Speedup = pool.QPS / res.Rows[0].QPS
		res.OnePool = append(res.OnePool, onePoolRow{shardsRow: *pool, Workers: n * workersPerShard, VsSplit: pool.QPS / row.QPS})
	}
	return res, nil
}

// sameTopK compares two exact rankings.
func sameTopK(want, got []bufir.ScoredDoc) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d documents vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Doc != got[i].Doc || want[i].Score != got[i].Score {
			return fmt.Errorf("rank %d: (%d, %v) vs (%d, %v)", i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
	return nil
}

// runShardsOnce serves every user's stream through a router over n
// shards and returns the row plus the verification query's merged
// top-k.
func (e *Env) runShardsOnce(seqs [][]bufir.Query, terms map[bufir.TermID]bool, workersPerShard, passes, n int, lat time.Duration) (*shardsRow, []bufir.ScoredDoc, error) {
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, nil, err
	}
	parts, err := ix.Shard(n)
	if err != nil {
		return nil, nil, err
	}
	backends := make([]bufir.Searcher, n)
	bufferPages := 0
	for i, p := range parts {
		if err := slowReads(p, lat); err != nil {
			return nil, nil, err
		}
		// E21 sizing against the shard's own working set: a quarter of
		// the local pages of the workload's term union.
		ws := 0
		for t := range terms {
			ws += p.TermPages(t)
		}
		perShard := ws/4 + 1
		bufferPages += perShard
		// DF, not BAF: BAF's buffer-aware term reordering changes the
		// floating-point accumulation order with the buffer state, so
		// only DF's fixed decreasing-weight order keeps the cross-count
		// verification bit-exact.
		eng, err := p.NewEngine(bufir.EngineConfig{
			EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true},
			Workers:     workersPerShard,
			BufferPages: perShard,
			Policy:      bufir.RAP,
		})
		if err != nil {
			return nil, nil, err
		}
		backends[i] = eng
	}
	router, err := bufir.NewRouter(backends, bufir.RouterConfig{TopN: 20})
	if err != nil {
		return nil, nil, err
	}
	defer router.Close()
	row, top, err := serveShardsStream(router, parts, seqs, passes)
	if err != nil {
		return nil, nil, err
	}
	row.Shards, row.BufferPages = n, bufferPages
	return row, top, nil
}

// runOnePool serves every user's stream from one engine over the
// unsplit index, with workers workers and frames buffer pages, and
// returns its row (Shards and BufferPages left to the caller) plus the
// verification query's top-k.
func (e *Env) runOnePool(seqs [][]bufir.Query, workers, frames, passes int, lat time.Duration) (*shardsRow, []bufir.ScoredDoc, error) {
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, nil, err
	}
	if err := slowReads(ix, lat); err != nil {
		return nil, nil, err
	}
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: bufir.DF, Unfiltered: true},
		Workers:     workers,
		BufferPages: frames,
		Policy:      bufir.RAP,
	})
	if err != nil {
		return nil, nil, err
	}
	defer eng.Close()
	return serveShardsStream(eng, []*bufir.Index{ix}, seqs, passes)
}

// serveShardsStream drives every user's stream through s, passes
// times, then asks the verification query — the largest refinement of
// topic 0 — outside the timed window. Pages read are summed over the
// indexes s serves.
func serveShardsStream(s bufir.Searcher, indexes []*bufir.Index, seqs [][]bufir.Query, passes int) (*shardsRow, []bufir.ScoredDoc, error) {
	latencies := make([][]time.Duration, len(seqs))
	errs := make([]error, len(seqs))
	var wg sync.WaitGroup
	start := time.Now()
	for u, seq := range seqs {
		wg.Add(1)
		go func(u int, seq []bufir.Query) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for _, q := range seq {
					t0 := time.Now()
					if _, err := s.SearchContext(context.Background(), u, q); err != nil {
						errs[u] = err
						return
					}
					latencies[u] = append(latencies[u], time.Since(t0))
				}
			}
		}(u, seq)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}

	verify, err := s.SearchContext(context.Background(), 0, seqs[0][len(seqs[0])-1])
	if err != nil {
		return nil, nil, err
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	slices.Sort(all)
	st := s.Stats()
	if got := st.Completed + st.Timeouts + st.Canceled + st.Errors + st.Degraded; st.Queries != got {
		return nil, nil, fmt.Errorf("serving invariant violated: %d queries, %d outcomes", st.Queries, got)
	}
	var reads int64
	for _, ix := range indexes {
		reads += ix.DiskReads()
	}
	return &shardsRow{
		Queries:       int64(len(all)),
		ElapsedMillis: float64(elapsed.Microseconds()) / 1000,
		QPS:           float64(len(all)) / elapsed.Seconds(),
		P50Micros:     float64(percentile(all, 50).Microseconds()),
		P99Micros:     float64(percentile(all, 99).Microseconds()),
		PagesRead:     reads,
		Degraded:      st.Degraded,
	}, verify.Top, nil
}

// Format prints the paper-style scaling table.
func (r *ShardsResult) Format(w io.Writer) {
	fmt.Fprintf(w, "E25: document-partitioned serving scale-out (%s)\n", r.Workload)
	fmt.Fprintf(w, "%d users, %d workers/shard, per-shard buffers at 1/4 of local working set, %dus/read\n\n",
		r.Users, r.WorkersPerID, r.ReadLatencyUS)
	fmt.Fprintf(w, "%7s %8s %8s %10s %9s %10s %10s %11s %9s\n",
		"shards", "queries", "buffers", "elapsed", "QPS", "p50", "p99", "pages-read", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%7d %8d %8d %9.0fms %9.1f %8.0fus %8.0fus %11d %8.2fx\n",
			row.Shards, row.Queries, row.BufferPages, row.ElapsedMillis, row.QPS,
			row.P50Micros, row.P99Micros, row.PagesRead, row.Speedup)
	}
	if len(r.OnePool) == 0 {
		return
	}
	fmt.Fprintf(w, "\none pool over the unsplit index per shard count: the split deployment's total buffers,\n")
	fmt.Fprintf(w, "shards x %d workers, %dus/read, top-k equal to the partitioned reference; %d CPUs\n\n",
		r.WorkersPerID, r.ReadLatencyUS, r.CPUs)
	fmt.Fprintf(w, "%7s %8s %8s %8s %10s %9s %10s %10s %11s %9s\n",
		"shards", "queries", "buffers", "workers", "elapsed", "QPS", "p50", "p99", "pages-read", "vs-split")
	for _, row := range r.OnePool {
		fmt.Fprintf(w, "%7d %8d %8d %8d %9.0fms %9.1f %8.0fus %8.0fus %11d %8.2fx\n",
			row.Shards, row.Queries, row.BufferPages, row.Workers, row.ElapsedMillis, row.QPS,
			row.P50Micros, row.P99Micros, row.PagesRead, row.VsSplit)
	}
}
