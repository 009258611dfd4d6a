package metrics

// Snapshot is a point-in-time view of everything the serving stack
// exposes: the atomic serving counters, live engine gauges, the
// queue-wait and service-time distributions, and the buffer pool's
// occupancy. It is plain data — JSON-serializable for /statusz,
// renderable as Prometheus text by bufir/obshttp — and cheap to
// assemble (a handful of atomic loads plus one pass over the pool's
// shard latches).
type Snapshot struct {
	// Serving is the engine's outcome and cost counter set.
	Serving ServingSnapshot
	// Engine holds the live engine gauges.
	Engine EngineGauges
	// QueueWait is the distribution of submit-to-execution wait times
	// (admission queue plus same-user ordering), one observation per
	// executed request.
	QueueWait HistogramSnapshot
	// Service is the distribution of service times (execution start to
	// completion), one observation per executed request — including
	// timed-out and canceled requests, whose service time is truncated
	// by the cutoff; see ServingSnapshot.MeanServiceMicros for
	// the same caveat on the mean.
	Service HistogramSnapshot
	// RetryWait is the distribution of backoff waits applied before
	// buffer-level load retries, one observation per retry (empty when
	// the fault-tolerant load path is off or no load has failed).
	RetryWait HistogramSnapshot
	// Buffer is the shared buffer pool's live state.
	Buffer BufferSnapshot
	// Shards holds per-shard serving gauges when the snapshot comes
	// from a scatter-gather router over document partitions; empty for
	// a single engine. The router's own Serving counters count routed
	// requests once — the per-shard numbers here sum higher because
	// every routed request fans out to all shards.
	Shards []ShardGauge `json:",omitempty"`
}

// ShardGauge is one document partition's serving state as seen by the
// router fronting it: the shard's outcome counters plus its buffer
// pool's miss count (the paper's disk-read metric, per partition).
type ShardGauge struct {
	// Shard is the partition number.
	Shard int
	// Outcome counters of the shard's backend (its own Stats).
	Queries   int64
	Completed int64
	Timeouts  int64
	Canceled  int64
	Errors    int64
	Degraded  int64
	// PagesRead is the shard's disk-read count.
	PagesRead int64
	// BufferMisses is the shard pool's miss counter when the backend
	// exposes a full snapshot (an Engine); -1 when unavailable.
	BufferMisses int64
}

// EngineGauges are the engine's live (instantaneous) gauges, as
// opposed to the monotone counters in ServingCounters.
type EngineGauges struct {
	// Workers is the configured worker-goroutine count.
	Workers int
	// QueueDepth is the number of accepted requests waiting in the
	// admission queue (submitted, not yet picked up by a worker).
	QueueDepth int64
	// InFlight is the number of requests currently held by workers —
	// executing, or parked on a same-user predecessor.
	InFlight int64
}

// BufferSnapshot is the buffer pool's live state: occupancy gauges
// plus the hit/miss/eviction counters, labeled with the replacement
// policy that produced them.
type BufferSnapshot struct {
	// Policy is the replacement policy name ("LRU", "MRU", "RAP").
	Policy string
	// Capacity is the pool size in pages; InUse the occupied frames;
	// Pinned the frames currently held by at least one evaluation.
	Capacity int
	InUse    int
	Pinned   int
	// Hits, Misses and Evictions are the pool's monotone counters
	// (Misses is the disk-read count the paper's cost metric is built
	// on).
	Hits      int64
	Misses    int64
	Evictions int64
	// ShardOccupancy is the per-latch-domain frame count; length 1 for
	// a one-shard pool. Skew across shards is the first thing to
	// look at when a sharded pool underperforms its capacity.
	ShardOccupancy []int
}

// Source provides observability snapshots; *engine.Engine implements
// it. The HTTP endpoint renders whatever Source it is given, keeping
// the server decoupled from the engine's concrete type.
type Source interface {
	ObsSnapshot() Snapshot
}
