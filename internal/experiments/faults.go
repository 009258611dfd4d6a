package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"bufir"
	"bufir/internal/rank"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// E23 (extension) — graceful degradation under I/O faults. The paper's
// cost model assumes every disk read succeeds; a served system's disks
// do not. This experiment measures what the fault-tolerant I/O path
// buys: a multi-user refinement workload runs against a store with a
// seeded transient-fault schedule while the fault probability sweeps
// from 0 upward. The retry/backoff loop absorbs faults below its
// budget; the per-query fault budget converts the rest into degraded
// (answer delivered, one term round sacrificed — a §2.2 legal stopping
// point) instead of failed queries. Reported per fault rate: the
// outcome mix, retries spent, and the mean overlap@20 of delivered
// answers against the fault-free reference — ranking quality bought
// back per retry.
// ---------------------------------------------------------------------------

// FaultRow is one fault probability's outcome.
type FaultRow struct {
	Prob      float64 // per-read transient fault probability
	Submitted int     // requests offered to the engine
	Completed int64   // delivered clean
	Degraded  int64   // delivered minus at least one faulted term round
	Errors    int64   // failed with a user-visible error
	Retries   int64   // buffer-level load retries spent
	Injected  int64   // transient faults the store actually fired
	Reads     int64   // successful disk reads (equals pool misses)
	// MeanOverlap is overlap@20 against the fault-free reference,
	// averaged over delivered answers.
	MeanOverlap float64
}

// DeliveredShare is the fraction of submitted requests that delivered
// an answer (clean or degraded).
func (r FaultRow) DeliveredShare() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Completed+r.Degraded) / float64(r.Submitted)
}

// FaultsResult holds the configuration and the fault-rate sweep.
type FaultsResult struct {
	Users       int
	Workers     int
	Shards      int
	BufferPages int
	Seed        uint64
	MaxRetries  int
	FaultBudget int

	Rows []FaultRow
}

// RunFaults runs the E23 fault-rate sweep: users concurrent refinement
// streams (topics round-robin over the E12 pattern) against a seeded
// transient-fault schedule, with the engine's retry loop and fault
// budget turned on. The prob=0 pass doubles as the fault-free
// reference for overlap@20.
func (e *Env) RunFaults(users, workers, shards int, seed uint64) (*FaultsResult, error) {
	if users < 1 {
		users = 8
	}
	if workers < 1 {
		workers = 4
	}
	if shards < 1 {
		shards = 4
	}
	if seed == 0 {
		seed = 1998
	}

	seqs, ws, err := e.userStream(users)
	if err != nil {
		return nil, err
	}
	out := &FaultsResult{
		Users:       users,
		Workers:     workers,
		Shards:      shards,
		BufferPages: ws/4 + 1, // the I/O-bound regime: faults hit often
		Seed:        seed,
		MaxRetries:  3,
		FaultBudget: 4,
	}
	// One index serves the whole sweep: each pass's engine starts a
	// cold pool, and each InjectFaults call replaces the fault layer
	// (fresh counters) over the same simulated disk.
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}

	// --- Fault-free reference pass (prob = 0). ---
	ref := make(map[[2]int][]rank.ScoredDoc)
	refRow, err := e.runFaultsOnce(ix, seqs, out, 0, func(u, round int, res *bufir.Result) {
		ref[[2]int{u, round}] = res.Top
	})
	if err != nil {
		return nil, err
	}
	if refRow.Completed == 0 {
		return nil, errors.New("experiments: fault-free reference pass completed nothing")
	}
	refRow.MeanOverlap = 1
	out.Rows = append(out.Rows, refRow)

	// --- Sweep the transient fault probability. ---
	for _, prob := range []float64{0.001, 0.01, 0.05, 0.1} {
		if err := ix.InjectFaults(fmt.Sprintf("transient:prob=%g", prob), seed); err != nil {
			return nil, err
		}
		var overlapSum float64
		var answered int64
		row, err := e.runFaultsOnce(ix, seqs, out, prob, func(u, round int, res *bufir.Result) {
			answered++
			overlapSum += overlapAt20(res.Top, ref[[2]int{u, round}])
		})
		if err != nil {
			return nil, err
		}
		row.Injected = ix.FaultStats().Transient
		if answered > 0 {
			row.MeanOverlap = overlapSum / float64(answered)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// runFaultsOnce runs the full interleaved refinement stream on a fresh
// engine over ix (whose disk faults per its InjectFaults schedule, if
// any), with the retry loop and the fault budget on, invoking report
// for every delivered answer, and returns the pass's outcome row.
func (e *Env) runFaultsOnce(ix *bufir.Index, seqs []*refine.Sequence, res *FaultsResult, prob float64,
	report func(u, round int, r *bufir.Result)) (FaultRow, error) {

	row := FaultRow{Prob: prob}
	eo := e.evalOptions(bufir.BAF)
	eo.FaultBudget = res.FaultBudget
	eng, err := ix.NewEngine(bufir.EngineConfig{
		EvalOptions: eo,
		Workers:     res.Workers,
		Shards:      res.Shards,
		BufferPages: res.BufferPages,
		Fault: bufir.FaultToleranceOptions{
			Retries:      res.MaxRetries,
			RetryBackoff: 50 * time.Microsecond,
			VictimWait:   time.Second,
		},
	})
	if err != nil {
		return row, err
	}
	defer eng.Close()

	reads0 := ix.DiskReads()
	row.Submitted, err = serveRounds(eng, seqs, func(u, j int, r *bufir.Result, err error, _ time.Duration) error {
		if err == nil && r != nil {
			report(u, j, r)
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	if err := eng.Shutdown(context.Background()); err != nil {
		return row, err
	}
	snap := eng.Stats()
	row.Completed = snap.Completed
	row.Degraded = snap.Degraded
	row.Errors = snap.Errors
	row.Retries = snap.Retries
	row.Reads = ix.DiskReads() - reads0
	return row, nil
}

// Format prints the degradation table.
func (r *FaultsResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Graceful degradation under I/O faults (E23)\n\n")
	fmt.Fprintf(w, "%d users on %d workers, %d buffer pages (%d latch shards); seeded transient faults,\n",
		r.Users, r.Workers, r.BufferPages, r.Shards)
	fmt.Fprintf(w, "retry budget %d with exponential backoff, per-query fault budget %d (seed %d)\n\n",
		r.MaxRetries, r.FaultBudget, r.Seed)
	fmt.Fprintf(w, "%8s  %6s  %9s  %8s  %6s  %8s  %8s  %7s  %9s  %11s\n",
		"prob", "subm", "completed", "degraded", "errors", "retries", "injected", "reads", "delivered", "overlap@20")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%8.3f  %6d  %9d  %8d  %6d  %8d  %8d  %7d  %8.0f%%  %11.3f\n",
			row.Prob, row.Submitted, row.Completed, row.Degraded, row.Errors,
			row.Retries, row.Injected, row.Reads, 100*row.DeliveredShare(), row.MeanOverlap)
	}
	fmt.Fprintf(w, "\noverlap@20 is against the fault-free pass's answers, averaged over delivered\n")
	fmt.Fprintf(w, "answers; retries absorb transient faults invisibly, the fault budget converts\n")
	fmt.Fprintf(w, "retry-budget overruns into degraded answers (one term round sacrificed — a legal\n")
	fmt.Fprintf(w, "§2.2 stopping point), and only budget overruns surface as errors\n")
}

// WriteCSV implements CSVWriter (E23).
func (r *FaultsResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			ftoa(row.Prob), itoa(row.Submitted),
			fmt.Sprintf("%d", row.Completed), fmt.Sprintf("%d", row.Degraded),
			fmt.Sprintf("%d", row.Errors), fmt.Sprintf("%d", row.Retries),
			fmt.Sprintf("%d", row.Injected), fmt.Sprintf("%d", row.Reads),
			ftoa(row.DeliveredShare()), ftoa(row.MeanOverlap),
		})
	}
	return writeCSV(w, []string{
		"prob", "submitted", "completed", "degraded", "errors", "retries",
		"injected", "reads", "delivered_share", "overlap_at_20",
	}, rows)
}
