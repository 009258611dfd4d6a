package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"bufir"
	"bufir/internal/rank"
	"bufir/internal/refine"
)

// ---------------------------------------------------------------------------
// EL (extension) — the request lifecycle under load: admission control,
// per-request deadlines, and anytime partial answers. DF and BAF are
// round-structured filters (§2.2), legal to stop after any round, so a
// deadline does not have to mean a failed request — it can mean a less
// refined answer. This experiment quantifies that tradeoff: an untimed
// pass measures each request's natural service time and records its
// answer as the reference; deadline passes then sweep QueryTimeout
// across the service-time distribution with OnDeadline=Partial and a
// bounded admission queue, reporting how many requests completed /
// returned partials / timed out empty / were shed, and the mean
// overlap@20 of the answers actually delivered against the untimed
// reference — quality bought per unit of deadline.
// ---------------------------------------------------------------------------

// LifecycleRow is one deadline setting's outcome.
type LifecycleRow struct {
	Timeout   time.Duration
	Submitted int   // requests offered to the engine
	Shed      int64 // rejected at admission (queue full)
	Executed  int64 // requests a worker picked up
	Completed int64 // ran to completion before the deadline
	Partials  int64 // deadline fired, anytime partial answer returned
	Aborted   int64 // deadline fired before any answer accumulated
	Canceled  int64 // canceled while queued
	Reads     int64 // pool disk reads during the pass
	// Answered is the number of requests that delivered an answer
	// (Completed + Partials); MeanOverlap averages overlap@20 against
	// the untimed reference over exactly those. Shed, aborted and
	// canceled requests deliver nothing and score zero in
	// AnsweredShare.
	Answered    int64
	MeanOverlap float64
}

// AnsweredShare is the fraction of submitted requests that got an
// answer (full or partial).
func (r LifecycleRow) AnsweredShare() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Answered) / float64(r.Submitted)
}

// LifecycleResult holds the experiment's configuration, the untimed
// baseline, and the deadline sweep.
type LifecycleResult struct {
	Users       int
	Workers     int
	Shards      int
	BufferPages int
	MaxQueue    int
	ReadLatency time.Duration

	// Untimed baseline service-time distribution (the sweep derives
	// its deadlines from these percentiles).
	BaselineQueries int
	BaselineP50     time.Duration
	BaselineP95     time.Duration

	Rows []LifecycleRow
}

// RunLifecycle runs the experiment: users concurrent refinement
// streams (topics round-robin over the E12 pattern) on a worker pool
// under simulated disk latency. The untimed pass uses blocking
// admission so every reference answer exists; the deadline passes run
// with MaxQueue = 2×users (fail-fast admission) and
// OnDeadline=Partial.
func (e *Env) RunLifecycle(users, workers, shards int, readLatency time.Duration) (*LifecycleResult, error) {
	if users < 1 {
		users = 16
	}
	if workers < 1 {
		workers = 4
	}
	if shards < 1 {
		shards = 8
	}
	if readLatency <= 0 {
		readLatency = 200 * time.Microsecond
	}

	seqs, ws, err := e.userStream(users)
	if err != nil {
		return nil, err
	}
	out := &LifecycleResult{
		Users:       users,
		Workers:     workers,
		Shards:      shards,
		BufferPages: ws/4 + 1, // below the working set: the I/O-bound regime
		// Half a round's burst fits the queue; the rest is admitted
		// only as fast as the workers drain, or shed.
		MaxQueue:    users/2 + 1,
		ReadLatency: readLatency,
	}
	ix, err := bufir.NewIndex(e.Col)
	if err != nil {
		return nil, err
	}
	ix.SetSimulatedReadLatency(readLatency)

	// --- Untimed pass: reference answers + service-time distribution. ---
	ref := make(map[[2]int][]rank.ScoredDoc)
	var services []time.Duration
	_, _, err = e.runLifecycleOnce(ix, seqs, out, bufir.EngineConfig{}, func(u, round int, res *bufir.Result, jerr error, svc time.Duration) error {
		if jerr == nil && res != nil {
			ref[[2]int{u, round}] = res.Top
			services = append(services, svc)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(services) == 0 {
		return nil, errors.New("experiments: lifecycle baseline produced no answers")
	}
	slices.Sort(services)
	out.BaselineQueries = len(services)
	out.BaselineP50 = percentile(services, 50)
	out.BaselineP95 = percentile(services, 95)

	// --- Deadline sweep across the service-time distribution. ---
	seen := make(map[time.Duration]bool)
	for _, timeout := range []time.Duration{
		percentile(services, 5), percentile(services, 25), out.BaselineP50,
		percentile(services, 75), out.BaselineP95, 2 * out.BaselineP95,
	} {
		if timeout <= 0 || seen[timeout] {
			continue
		}
		seen[timeout] = true
		row := LifecycleRow{Timeout: timeout}
		var overlapSum float64
		submitted, snap, err := e.runLifecycleOnce(ix, seqs, out, bufir.EngineConfig{
			MaxQueue:     out.MaxQueue,
			QueryTimeout: timeout,
			OnDeadline:   bufir.PartialOnDeadline,
		}, func(u, round int, res *bufir.Result, jerr error, _ time.Duration) error {
			if jerr != nil || res == nil {
				return nil
			}
			row.Answered++
			if res.Partial {
				row.Partials++
			} else {
				row.Completed++
			}
			overlapSum += overlapAt20(res.Top, ref[[2]int{u, round}])
			return nil
		})
		if err != nil {
			return nil, err
		}
		row.Submitted = submitted
		row.Shed = snap.Shed
		row.Executed = snap.Queries
		// Timeouts that returned a partial are already in Partials;
		// the rest aborted empty.
		row.Aborted = snap.Timeouts - snap.Partials
		row.Canceled = snap.Canceled
		row.Reads = snap.PagesRead
		if row.Answered > 0 {
			row.MeanOverlap = overlapSum / float64(row.Answered)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// runLifecycleOnce serves the full interleaved refinement stream on a
// fresh engine over ix built from cfg's admission/deadline knobs
// (worker count, shards, pool size and evaluation come from the
// experiment), invoking report for every request that was admitted,
// and returns the offered-request count and the engine's final
// counters. Shed requests are counted by the engine.
func (e *Env) runLifecycleOnce(ix *bufir.Index, seqs []*refine.Sequence, res *LifecycleResult, cfg bufir.EngineConfig,
	report func(u, round int, r *bufir.Result, err error, svc time.Duration) error) (int, bufir.EngineStats, error) {

	cfg.EvalOptions = e.evalOptions(bufir.BAF)
	cfg.Workers = res.Workers
	cfg.Shards = res.Shards
	cfg.BufferPages = res.BufferPages
	eng, err := ix.NewEngine(cfg)
	if err != nil {
		return 0, bufir.EngineStats{}, err
	}
	defer eng.Close()
	submitted, err := serveRounds(eng, seqs, report)
	if err == nil {
		err = eng.Shutdown(context.Background())
	}
	if err != nil {
		return 0, bufir.EngineStats{}, err
	}
	return submitted, eng.Stats(), nil
}

// overlapAt20 is rank.OverlapAtK at the paper's answer size: one
// audited implementation shared by E23, E26 and E27 (duplicate DocIDs
// in a degraded ranking count once, so the metric is capped at 1).
func overlapAt20(got, want []rank.ScoredDoc) float64 {
	return rank.OverlapAtK(got, want, 20)
}

// Format prints the tradeoff table.
func (r *LifecycleResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Request lifecycle: deadlines, admission control, anytime answers\n\n")
	fmt.Fprintf(w, "%d users on %d workers, %d buffer pages (%d latch shards), %v simulated read latency\n",
		r.Users, r.Workers, r.BufferPages, r.Shards, r.ReadLatency)
	fmt.Fprintf(w, "untimed baseline: %d requests, service p50=%v p95=%v; deadline passes use MaxQueue=%d, OnDeadline=Partial\n\n",
		r.BaselineQueries, r.BaselineP50.Round(10*time.Microsecond), r.BaselineP95.Round(10*time.Microsecond), r.MaxQueue)
	fmt.Fprintf(w, "%10s  %6s  %5s  %9s  %8s  %7s  %8s  %8s  %9s  %11s\n",
		"timeout", "subm", "shed", "completed", "partial", "aborted", "canceled", "reads", "answered", "overlap@20")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10v  %6d  %5d  %9d  %8d  %7d  %8d  %8d  %8.0f%%  %11.3f\n",
			row.Timeout.Round(10*time.Microsecond), row.Submitted, row.Shed, row.Completed,
			row.Partials, row.Aborted, row.Canceled, row.Reads,
			100*row.AnsweredShare(), row.MeanOverlap)
	}
	fmt.Fprintf(w, "\noverlap@20 is against each request's untimed answer, averaged over requests that\n")
	fmt.Fprintf(w, "delivered one; partial answers trade deadline headroom for refinement (§2.2's\n")
	fmt.Fprintf(w, "filtering rounds are legal stopping points), so overlap rises with the deadline\n")
	fmt.Fprintf(w, "while shed+aborted fall\n")
}

// WriteCSV implements CSVWriter (EL).
func (r *LifecycleResult) WriteCSV(w io.Writer) error {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Timeout.Microseconds()),
			itoa(row.Submitted), fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Completed), fmt.Sprintf("%d", row.Partials),
			fmt.Sprintf("%d", row.Aborted), fmt.Sprintf("%d", row.Canceled),
			fmt.Sprintf("%d", row.Reads), ftoa(row.MeanOverlap),
			ftoa(row.AnsweredShare()),
		})
	}
	return writeCSV(w, []string{
		"timeout_us", "submitted", "shed", "completed", "partial", "aborted",
		"canceled", "reads", "overlap_at_20", "answered_share",
	}, rows)
}
