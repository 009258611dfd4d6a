package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/metrics"
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

	userTopics := []int{0, 1, 0, 1}
	seqs := make([]*refine.Sequence, users)
	ws := 0
	for u := range seqs {
		seq, err := e.Sequence(userTopics[u%len(userTopics)], refine.AddOnly)
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

	// --- Untimed pass: reference answers + service-time distribution. ---
	ref := make(map[[2]int][]rank.ScoredDoc)
	var services []time.Duration
	_, _, err := e.runLifecycleOnce(seqs, out, engine.Config{}, func(u, round int, res *eval.Result, jerr error, svc time.Duration) {
		if jerr == nil && res != nil {
			ref[[2]int{u, round}] = res.Top
			services = append(services, svc)
		}
	}, false)
	if err != nil {
		return nil, err
	}
	if len(services) == 0 {
		return nil, errors.New("experiments: lifecycle baseline produced no answers")
	}
	sort.Slice(services, func(i, j int) bool { return services[i] < services[j] })
	pct := func(p int) time.Duration { return services[min(len(services)*p/100, len(services)-1)] }
	out.BaselineQueries = len(services)
	out.BaselineP50 = pct(50)
	out.BaselineP95 = pct(95)

	// --- Deadline sweep across the service-time distribution. ---
	sweep := []time.Duration{pct(5), pct(25), pct(50), pct(75), pct(95), 2 * pct(95)}
	seen := make(map[time.Duration]bool)
	for _, timeout := range sweep {
		if timeout <= 0 || seen[timeout] {
			continue
		}
		seen[timeout] = true
		row := LifecycleRow{Timeout: timeout}
		var overlapSum float64
		submitted, snap, err := e.runLifecycleOnce(seqs, out, engine.Config{
			MaxQueue:     out.MaxQueue,
			QueryTimeout: timeout,
			OnDeadline:   engine.PartialOnDeadline,
		}, func(u, round int, res *eval.Result, jerr error, svc time.Duration) {
			if jerr != nil || res == nil {
				return
			}
			row.Answered++
			if res.Partial {
				row.Partials++
			} else {
				row.Completed++
			}
			overlapSum += overlapAt20(res.Top, ref[[2]int{u, round}])
		}, true)
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

// runLifecycleOnce runs the full interleaved refinement stream on a
// fresh engine built from cfg's admission/deadline knobs (worker
// count, algorithm and parameters come from the experiment), invoking
// report for every request that was accepted, and returning the
// submitted-request count and the engine's final counters. failFast
// selects whether ErrQueueFull is tolerated (counted by the engine)
// or treated as a hard error.
func (e *Env) runLifecycleOnce(seqs []*refine.Sequence, res *LifecycleResult, cfg engine.Config,
	report func(u, round int, r *eval.Result, err error, svc time.Duration), failFast bool) (int, metrics.ServingSnapshot, error) {

	var zero metrics.ServingSnapshot
	pool, err := buffer.NewShardedSharedPool(res.BufferPages, res.Shards, e.Store, e.Idx,
		func(int) buffer.Policy { return buffer.NewRAP() })
	if err != nil {
		return 0, zero, err
	}
	cfg.Workers = res.Workers
	cfg.Algo = eval.BAF
	cfg.Params = e.Params()
	eng, err := engine.New(e.Idx, e.Conv, pool, cfg)
	if err != nil {
		return 0, zero, err
	}
	defer eng.Close()

	e.Store.SetReadLatency(res.ReadLatency)
	defer e.Store.SetReadLatency(0)

	maxRef := 0
	for _, s := range seqs {
		if len(s.Refinements) > maxRef {
			maxRef = len(s.Refinements)
		}
	}
	// Submission is paced by refinement round — a user refines after
	// seeing the previous answer — so each round is a burst of
	// len(seqs) requests against the admission queue. A shed
	// refinement is simply skipped; the user's next round proceeds.
	type pending struct {
		u, round int
		job      *engine.Job
	}
	submitted := 0
	for j := 0; j < maxRef; j++ {
		var jobs []pending
		for u, s := range seqs {
			if j >= len(s.Refinements) {
				continue
			}
			submitted++
			job, err := eng.SubmitContext(context.Background(), u, s.Refinements[j])
			if err != nil {
				if failFast && errors.Is(err, engine.ErrQueueFull) {
					continue // shed; the engine counted it
				}
				return 0, zero, err
			}
			jobs = append(jobs, pending{u: u, round: j, job: job})
		}
		for _, p := range jobs {
			r, jerr := p.job.Wait()
			report(p.u, p.round, r, jerr, p.job.Service())
		}
	}
	if err := eng.Shutdown(nil); err != nil {
		return 0, zero, err
	}
	return submitted, eng.Counters(), nil
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
