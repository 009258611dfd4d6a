package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/refine"
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

// VerifyPoint compares total disk reads at one pool size: the serial
// E12 interleave vs. the 1-worker engine over the same stream.
type VerifyPoint struct {
	Size        int
	SerialReads int64
	EngineReads int64
}

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
	if users < 1 {
		users = 16
	}
	if shards < 1 {
		shards = 8
	}
	if len(workerSet) == 0 {
		workerSet = []int{1, 2, 4, 8}
	}

	// --- Verification: 1-worker engine ≡ serial E12 interleave. ---
	userTopics := []int{0, 1, 0, 1}
	seqs := make([]*refine.Sequence, len(userTopics))
	ws := 0
	for u, ti := range userTopics {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			return nil, err
		}
		seqs[u] = seq
	}
	for _, ti := range []int{0, 1} {
		seq, err := e.Sequence(ti, refine.AddOnly)
		if err != nil {
			return nil, err
		}
		ws += e.WorkingSetPages(seq)
	}

	// The scaling half runs with a pool well below the working set so
	// the stream stays I/O-bound — the regime where latch sharding and
	// out-of-latch reads matter; with an ample pool every worker count
	// degenerates to the warm-cache CPU path.
	out := &ConcurrencyResult{
		Users:       users,
		Shards:      shards,
		BufferPages: ws/4 + 1,
		ReadLatency: readLatency,
	}
	for _, size := range SweepSizes(ws, points) {
		serial, err := e.runMultiUserOnce("shared/RAP", seqs, size)
		if err != nil {
			return nil, err
		}
		eng, err := e.runEngineOnce(seqs, size, 1, 1, 0, nil)
		if err != nil {
			return nil, err
		}
		out.Verify = append(out.Verify, VerifyPoint{
			Size:        size,
			SerialReads: int64(serial),
			EngineReads: eng,
		})
	}

	// --- Scaling: QPS and latency vs. workers, serial vs. sharded
	// pool, under simulated disk latency. ---
	scaleSeqs := make([]*refine.Sequence, users)
	for u := range scaleSeqs {
		seq, err := e.Sequence(userTopics[u%len(userTopics)], refine.AddOnly)
		if err != nil {
			return nil, err
		}
		scaleSeqs[u] = seq
	}
	for _, pool := range []string{"serial", "sharded"} {
		nshards := 1
		if pool == "sharded" {
			nshards = shards
		}
		for _, w := range workerSet {
			row := ConcurrencyRow{Pool: pool, Workers: w}
			var services []time.Duration
			reads, err := e.runEngineOnce(scaleSeqs, out.BufferPages, w, nshards, readLatency, func(n int, elapsed time.Duration, svc []time.Duration) {
				row.Queries = n
				row.Elapsed = elapsed
				services = svc
			})
			if err != nil {
				return nil, err
			}
			row.Reads = reads
			sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
			if len(services) > 0 {
				row.P50 = services[len(services)/2]
				row.P99 = services[len(services)*99/100]
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// runEngineOnce executes the interleaved refinement stream of seqs on a
// fresh engine (w workers, nshards latches, totalPages buffer) and
// returns the pool's total disk reads. The stream is submitted in the
// serial experiment's order — round j of every user in turn — so with
// one worker the execution order is identical to runMultiUserOnce.
// measure, when non-nil, receives the query count, wall-clock time and
// per-query service times.
func (e *Env) runEngineOnce(seqs []*refine.Sequence, totalPages, w, nshards int, readLatency time.Duration, measure func(int, time.Duration, []time.Duration)) (int64, error) {
	pool, err := buffer.NewShardedSharedPool(totalPages, nshards, e.Store, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		return 0, err
	}
	eng, err := engine.New(e.Idx, e.Conv, pool, engine.Config{
		Workers: w,
		Algo:    eval.BAF,
		Params:  e.Params(),
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()

	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	e.Store.SetReadLatency(readLatency)
	defer e.Store.SetReadLatency(0)

	start := time.Now()
	var jobs []*engine.Job
	for j := 0; j < maxRef; j++ {
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			job, err := eng.Submit(u, s.Refinements[j])
			if err != nil {
				return 0, err
			}
			jobs = append(jobs, job)
		}
	}
	services := make([]time.Duration, 0, len(jobs))
	for _, job := range jobs {
		if _, err := job.Wait(); err != nil {
			return 0, err
		}
		services = append(services, job.Service())
	}
	elapsed := time.Since(start)
	if measure != nil {
		measure(len(jobs), elapsed, services)
	}
	return pool.Manager().Stats().Misses, nil
}

// Format prints both tables.
func (r *ConcurrencyResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Concurrent engine over the §3.3 shared pool\n\n")
	fmt.Fprintf(w, "Verification: 1-worker engine vs. serial E12 interleave (shared/RAP, total disk reads)\n")
	fmt.Fprintf(w, "%8s  %12s  %12s  %s\n", "buffers", "serial", "engine(w=1)", "match")
	exact := true
	for _, v := range r.Verify {
		match := "ok"
		if v.SerialReads != v.EngineReads {
			match = "MISMATCH"
			exact = false
		}
		fmt.Fprintf(w, "%8d  %12d  %12d  %s\n", v.Size, v.SerialReads, v.EngineReads, match)
	}
	if exact {
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
