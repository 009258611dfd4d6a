package metrics

import "sync/atomic"

// ServingCounters is the atomic counter set of the concurrent serving
// layer. Workers on every goroutine add to it lock-free; snapshots are
// exact at quiescence (after all in-flight queries drain), which is
// when experiments read them. Keeping these atomic — rather than
// summing per-worker locals — is what lets QPS/latency experiments
// report the same entry and page counts regardless of worker count.
type ServingCounters struct {
	Queries atomic.Int64
	Errors  atomic.Int64
	// PagesRead, PagesProcessed and EntriesProcessed aggregate the
	// paper's cost metrics over every evaluation that ran — including
	// aborted, canceled and timed-out requests, which are charged for
	// the pages they actually read before stopping. Disk I/O happened
	// whether or not an answer was delivered, so at quiescence
	// PagesRead equals the buffer pool's miss counter.
	PagesRead        atomic.Int64
	PagesProcessed   atomic.Int64
	EntriesProcessed atomic.Int64
	// ServiceNanos accumulates per-query service time (dequeue to
	// completion) over ALL executed requests — for timed-out and
	// canceled ones that is the time until the cutoff, not a full
	// evaluation. CompletedServiceNanos accumulates only requests that
	// ran to completion, so the two means bracket the truth: see
	// MeanServiceMicros and MeanCompletedServiceMicros.
	ServiceNanos          atomic.Int64
	CompletedServiceNanos atomic.Int64

	// Request-lifecycle outcomes. Every executed request lands in
	// exactly one bucket — Completed, Timeouts (deadline expired
	// before completion), Canceled (context canceled), Errors, or
	// Degraded (ran to the end, but at least one term round was
	// abandoned by an I/O fault within the query's error budget) — so
	// Queries == Completed + Timeouts + Canceled + Errors + Degraded
	// holds at quiescence. Shed requests (rejected at admission, queue
	// full) were never executed and are disjoint from all of the above.
	// Partials counts the subset of Timeouts that returned an anytime
	// partial answer instead of an error; a partial-returning request
	// counts in both Timeouts and Partials, never in Completed.
	Completed atomic.Int64
	Shed      atomic.Int64
	Timeouts  atomic.Int64
	Canceled  atomic.Int64
	Partials  atomic.Int64
	Degraded  atomic.Int64

	// Fault-path counters. Retries counts buffer-level re-attempts of
	// failed page loads (each one a backoff sleep plus another store
	// read); Faults counts term rounds abandoned under the per-query
	// error budget, summed over all executed requests. Neither is an
	// outcome bucket: a query whose every fault was retried away still
	// lands in Completed, with only Retries recording that anything
	// happened.
	Retries atomic.Int64
	Faults  atomic.Int64
}

// ServingSnapshot is a point-in-time copy of ServingCounters.
type ServingSnapshot struct {
	Queries               int64
	Errors                int64
	PagesRead             int64
	PagesProcessed        int64
	EntriesProcessed      int64
	ServiceNanos          int64
	CompletedServiceNanos int64
	Completed             int64
	Shed                  int64
	Timeouts              int64
	Canceled              int64
	Partials              int64
	Degraded              int64
	Retries               int64
	Faults                int64
}

// Snapshot copies the counters.
func (c *ServingCounters) Snapshot() ServingSnapshot {
	return ServingSnapshot{
		Queries:               c.Queries.Load(),
		Errors:                c.Errors.Load(),
		PagesRead:             c.PagesRead.Load(),
		PagesProcessed:        c.PagesProcessed.Load(),
		EntriesProcessed:      c.EntriesProcessed.Load(),
		ServiceNanos:          c.ServiceNanos.Load(),
		CompletedServiceNanos: c.CompletedServiceNanos.Load(),
		Completed:             c.Completed.Load(),
		Shed:                  c.Shed.Load(),
		Timeouts:              c.Timeouts.Load(),
		Canceled:              c.Canceled.Load(),
		Partials:              c.Partials.Load(),
		Degraded:              c.Degraded.Load(),
		Retries:               c.Retries.Load(),
		Faults:                c.Faults.Load(),
	}
}

// MeanServiceMicros returns the mean service time in microseconds over
// ALL executed requests (0 when none executed). Timed-out and canceled
// requests contribute their truncated service time — the time spent
// until the cutoff — so under heavy shedding or tight deadlines this
// mean UNDERSTATES what a completed request costs. It remains the
// right number for "worker time per executed request" (utilization);
// for user-visible latency of successful answers use
// MeanCompletedServiceMicros.
func (s ServingSnapshot) MeanServiceMicros() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.ServiceNanos) / float64(s.Queries) / 1e3
}

// MeanCompletedServiceMicros returns the mean service time in
// microseconds over requests that ran to completion (0 when none
// completed). Unlike MeanServiceMicros, deadline- and cancel-truncated
// requests are excluded from both numerator and denominator, so this
// is the latency a user who got a full answer experienced.
func (s ServingSnapshot) MeanCompletedServiceMicros() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.CompletedServiceNanos) / float64(s.Completed) / 1e3
}
