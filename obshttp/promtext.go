package obshttp

import (
	"fmt"
	"io"
	"sort"

	"bufir/internal/metrics"
)

// writeMetrics renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric names follow the Prometheus naming
// conventions: a bufir_ namespace, _total suffixes on counters, base
// units (seconds) for durations.
func writeMetrics(w io.Writer, s metrics.Snapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	// Serving outcome counters. Every executed request lands in exactly
	// one of completed/timeouts/canceled/errors; shed requests were
	// never executed and are disjoint.
	sv := s.Serving
	counter("bufir_queries_total", "Requests executed by a worker (all outcomes).", sv.Queries)
	counter("bufir_queries_completed_total", "Requests that ran to completion.", sv.Completed)
	counter("bufir_timeouts_total", "Requests whose deadline expired mid-execution.", sv.Timeouts)
	counter("bufir_partials_total", "Timed-out requests that returned an anytime partial answer.", sv.Partials)
	counter("bufir_canceled_total", "Requests canceled by their submitter.", sv.Canceled)
	counter("bufir_errors_total", "Requests failed with a non-context error.", sv.Errors)
	counter("bufir_shed_total", "Requests rejected at admission (queue full).", sv.Shed)
	counter("bufir_degraded_total", "Requests that completed with at least one term round lost to an I/O fault.", sv.Degraded)

	// Fault-path counters: buffer-level load retries and eval-level
	// faulted term rounds.
	counter("bufir_retries_total", "Buffer load retries (backoff sleeps before re-reads).", sv.Retries)
	counter("bufir_faults_total", "Term rounds abandoned under the per-query error budget.", sv.Faults)

	// Cost counters: the paper's metrics, aggregated over every
	// evaluation that ran — including aborted and canceled ones, which
	// are charged for the pages they actually read.
	counter("bufir_pages_read_total", "Inverted-list pages read from disk (buffer misses).", sv.PagesRead)
	counter("bufir_pages_processed_total", "Inverted-list pages processed (buffer hits + misses).", sv.PagesProcessed)
	counter("bufir_entries_processed_total", "Postings entries examined.", sv.EntriesProcessed)

	// Engine gauges.
	eg := s.Engine
	gauge("bufir_workers", "Configured worker goroutines.", int64(eg.Workers))
	gauge("bufir_queue_depth", "Accepted requests waiting in the admission queue.", eg.QueueDepth)
	gauge("bufir_in_flight", "Requests currently held by workers.", eg.InFlight)

	// Buffer pool gauges and counters.
	b := s.Buffer
	gauge("bufir_buffer_capacity_pages", "Buffer pool capacity in pages.", int64(b.Capacity))
	gauge("bufir_buffer_resident_pages", "Occupied buffer frames.", int64(b.InUse))
	gauge("bufir_buffer_pinned_frames", "Buffer frames pinned by at least one evaluation.", int64(b.Pinned))
	counter("bufir_buffer_hits_total", "Buffer hits.", b.Hits)
	counter("bufir_buffer_misses_total", "Buffer misses (disk reads).", b.Misses)
	fmt.Fprintf(w, "# HELP bufir_buffer_evictions_total Pages evicted, by replacement policy.\n")
	fmt.Fprintf(w, "# TYPE bufir_buffer_evictions_total counter\n")
	fmt.Fprintf(w, "bufir_buffer_evictions_total{policy=%q} %d\n", b.Policy, b.Evictions)
	if len(b.ShardOccupancy) > 0 {
		fmt.Fprintf(w, "# HELP bufir_buffer_shard_resident_pages Occupied frames per latch shard.\n")
		fmt.Fprintf(w, "# TYPE bufir_buffer_shard_resident_pages gauge\n")
		for i, n := range b.ShardOccupancy {
			fmt.Fprintf(w, "bufir_buffer_shard_resident_pages{shard=\"%d\"} %d\n", i, n)
		}
	}

	// Per-shard serving gauges (scatter-gather router only). These sum
	// higher than the router's own counters: every routed request fans
	// out to all shards.
	if len(s.Shards) > 0 {
		shardCounter := func(name, help string, get func(metrics.ShardGauge) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, sg := range s.Shards {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, sg.Shard, get(sg))
			}
		}
		shardCounter("bufir_shard_queries_total", "Per-shard requests executed (router fan-out).",
			func(g metrics.ShardGauge) int64 { return g.Queries })
		shardCounter("bufir_shard_completed_total", "Per-shard requests that ran to completion.",
			func(g metrics.ShardGauge) int64 { return g.Completed })
		shardCounter("bufir_shard_timeouts_total", "Per-shard requests cut by a shard deadline.",
			func(g metrics.ShardGauge) int64 { return g.Timeouts })
		shardCounter("bufir_shard_errors_total", "Per-shard requests failed with a non-context error.",
			func(g metrics.ShardGauge) int64 { return g.Errors })
		shardCounter("bufir_shard_degraded_total", "Per-shard requests degraded by I/O faults.",
			func(g metrics.ShardGauge) int64 { return g.Degraded })
		shardCounter("bufir_shard_pages_read_total", "Per-shard inverted-list pages read from disk.",
			func(g metrics.ShardGauge) int64 { return g.PagesRead })
	}

	writeHistogram(w, "bufir_queue_wait_seconds",
		"Submit-to-execution wait time.", s.QueueWait)
	writeHistogram(w, "bufir_service_seconds",
		"Request service time (execution start to completion, all outcomes).", s.Service)
	writeHistogram(w, "bufir_retry_wait_seconds",
		"Backoff waits applied before buffer load retries.", s.RetryWait)
}

// writeHistogram emits one histogram in Prometheus cumulative-bucket
// form. Only occupied buckets are emitted (plus +Inf); cumulative
// counts stay monotone, which is all the format requires. Bounds are
// converted from nanoseconds to seconds.
func writeHistogram(w io.Writer, name, help string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	type bk struct {
		upper int64
		count int64
	}
	var buckets []bk
	h.NonEmptyBuckets(func(upper, count int64) {
		buckets = append(buckets, bk{upper, count})
	})
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].upper < buckets[j].upper })
	var cum int64
	for _, b := range buckets {
		cum += b.count
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b.upper)/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.Sum)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}
