package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"bufir"
)

// ---------------------------------------------------------------------------
// EC (extension) — the concurrent serving layer over §3.3's shared
// pool. Two questions: (1) does the worker-pool engine preserve the
// serial semantics (the 1-worker run must reproduce E12's shared/RAP
// disk reads bit-for-bit), and (2) how does throughput scale with the
// worker count? Disk reads happen outside the buffer latch at every
// shard count, so the one-latch and the sharded pool are compared to
// isolate what splitting the latch itself adds. The disk is given a
// simulated per-read latency (the paper's cost model charges time per
// page read, §4.1), so scaling comes from overlapping I/O waits — the
// regime the paper's cost model describes — not from raw CPU
// parallelism.
// ---------------------------------------------------------------------------

// ConcurrencyRow is one scaling measurement.
type ConcurrencyRow struct {
	Pool    string // "serial" (one latch shard) or "sharded"
	Workers int
	Queries int
	Reads   int64
	Elapsed time.Duration
	P50     time.Duration
	P99     time.Duration
}

// QPS returns the row's throughput in queries per second.
func (r ConcurrencyRow) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// ConcurrencyResult holds both halves of the experiment.
type ConcurrencyResult struct {
	// Verification half (E12 workload: 4 users, topics [0 1 0 1]).
	Verify []VerifyPoint
	// Scaling half.
	Users       int
	Shards      int
	BufferPages int
	ReadLatency time.Duration
	Rows        []ConcurrencyRow
}

// RunConcurrency runs the experiment. users is the number of concurrent
// sessions in the scaling half (topics assigned round-robin over the
// E12 pattern), shards the latch count of the sharded pool, workerSet
// the worker counts to sweep, readLatency the simulated per-read disk
// latency, and points the pool-size sweep density of the verification
// half.
func (e *Env) RunConcurrency(users, shards int, workerSet []int, readLatency time.Duration, points int) (*ConcurrencyResult, error) {
	verify, err := e.verifySweep(points, "")
	if err != nil {
		return nil, err
	}
	seqs, ws, err := e.userStream(users)
	if err != nil {
		return nil, err
	}

	// The scaling half runs with a pool well below the working set so
	// the stream stays I/O-bound — the regime where latch sharding and
	// out-of-latch reads matter; with an ample pool every worker count
	// degenerates to the warm-cache CPU path.
	out := &ConcurrencyResult{
		Verify:      verify,
		Users:       users,
		Shards:      shards,
		BufferPages: ws/4 + 1,
		ReadLatency: readLatency,
	}
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}
	if err := slowReads(ix, readLatency); err != nil {
		return nil, err
	}
	for _, pool := range []string{"serial", "sharded"} {
		nshards := 1
		if pool == "sharded" {
			nshards = shards
		}
		for _, w := range workerSet {
			eng, err := ix.NewEngine(bufir.EngineConfig{
				EvalOptions: e.evalOptions(bufir.BAF),
				Workers:     w,
				Shards:      nshards,
				BufferPages: out.BufferPages,
			})
			if err != nil {
				return nil, err
			}
			var services []time.Duration
			start := time.Now()
			n, err := serveRounds(eng, seqs, func(_, _ int, _ *bufir.Result, err error, svc time.Duration) error {
				services = append(services, svc)
				return err
			})
			elapsed := time.Since(start)
			reads := eng.BufferStats().Misses
			eng.Close()
			if err != nil {
				return nil, err
			}
			slices.Sort(services)
			out.Rows = append(out.Rows, ConcurrencyRow{
				Pool: pool, Workers: w, Queries: n, Reads: reads, Elapsed: elapsed,
				P50: percentile(services, 50), P99: percentile(services, 99),
			})
		}
	}
	return out, nil
}

// Format prints both tables.
func (r *ConcurrencyResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Concurrent engine over the §3.3 shared pool\n\n")
	fmt.Fprintf(w, "Verification: 1-worker engine vs. serial E12 interleave (shared/RAP, total disk reads)\n")
	if formatVerify(w, r.Verify) {
		fmt.Fprintf(w, "single-worker path reproduces the serial read counts exactly\n")
	}

	fmt.Fprintf(w, "\nScaling: %d users, %d buffer pages, %v simulated read latency; sharded pool uses %d latches\n",
		r.Users, r.BufferPages, r.ReadLatency, r.Shards)
	fmt.Fprintf(w, "%8s  %7s  %7s  %8s  %8s  %10s  %10s  %8s\n",
		"pool", "workers", "queries", "reads", "QPS", "p50", "p99", "speedup")
	base := make(map[string]float64)
	for _, row := range r.Rows {
		if row.Workers == 1 {
			base[row.Pool] = row.QPS()
		}
		speedup := 0.0
		if b := base[row.Pool]; b > 0 {
			speedup = row.QPS() / b
		}
		fmt.Fprintf(w, "%8s  %7d  %7d  %8d  %8.1f  %10v  %10v  %7.2fx\n",
			row.Pool, row.Workers, row.Queries, row.Reads, row.QPS(),
			row.P50.Round(10*time.Microsecond), row.P99.Round(10*time.Microsecond), speedup)
	}
}
