package main

import "bufir"

// metricSpec names one metric: what BENCHMARK.json declares and what
// a run prints.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of an untraced run, what a user of the
// serving stack sees. Every workload reports every one. Bound is the
// share of the parent's median by which the metric may worsen.
var endToEnd = []metricSpec{
	// Wall-clock timings drift by 5 to 15 % between runs in a small
	// sandbox, whatever is measured; the counts below them do not.
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"pages_read_per_query", "pages", "lower", 0.05},
	{"entries_per_query", "entries", "lower", 0.02},
	{"overlap_at_20", "ratio", "higher", 0.02},
	{"alloc_kb_per_query", "KiB", "lower", 0.05},
	{"heap_live_mb", "MiB", "lower", 0.15},
	{"index_bytes_per_posting", "B", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the metrics of a traced run, one layer each; they
// carry no bound. A layer that is not on a workload's path reports 0
// there. README.md says which end-to-end metric each should move.
var perLayer = []metricSpec{
	// Set-up spans, seconds.
	{Name: "corpus.generate_s", Unit: "s", Better: "lower"},
	{Name: "postings.build_s", Unit: "s", Better: "lower"},
	{Name: "indexfile.write_s", Unit: "s", Better: "lower"},
	{Name: "open.open_s", Unit: "s", Better: "lower"},
	{Name: "shard.split_s", Unit: "s", Better: "lower"},
	{Name: "livedex.enable_s", Unit: "s", Better: "lower"},
	{Name: "warmup_s", Unit: "s", Better: "lower"},
	// Engine: queue, worker hand-off and outcome buckets.
	{Name: "engine.handoff_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.service_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.shed", Unit: "count", Better: "lower"},
	{Name: "engine.timeouts", Unit: "count", Better: "lower"},
	{Name: "engine.errors", Unit: "count", Better: "lower"},
	{Name: "engine.degraded", Unit: "count", Better: "lower"},
	// Router: scatter, gather, merge.
	{Name: "router.self_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.straggler_gap_us_p50", Unit: "us", Better: "lower"},
	{Name: "router.fanout", Unit: "count", Better: "lower"},
	// Evaluators.
	{Name: "eval.self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "eval.ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "eval.inquiries_per_query", Unit: "count", Better: "lower"},
	{Name: "eval.accumulators_p50", Unit: "count", Better: "lower"},
	{Name: "evalsafe.self_us_per_query", Unit: "us", Better: "lower"},
	{Name: "evalsafe.ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "evalsafe.pages_per_query", Unit: "pages", Better: "lower"},
	{Name: "rank.topn_us", Unit: "us", Better: "lower"},
	// Buffer manager and replacement policy.
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "buffer.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.unpin_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.resident_inquiry_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.miss_self_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.setquery_us", Unit: "us", Better: "lower"},
	// Page store, index file, codec.
	{Name: "storage.read_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.reads", Unit: "count", Better: "lower"},
	{Name: "indexfile.pageblob_ns", Unit: "ns", Better: "lower"},
	{Name: "indexfile.payload_bytes_per_posting", Unit: "B", Better: "lower"},
	{Name: "codec.decode_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "codec.decode_allocs_per_page", Unit: "count", Better: "lower"},
	{Name: "codec.bytes_per_entry", Unit: "B", Better: "lower"},
	// Live index.
	{Name: "livedex.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "livedex.ingest_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "livedex.merge_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "livedex.epochs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "livedex.cold_reads_after_publish", Unit: "pages", Better: "lower"},
	{Name: "livedex.overlay_read_ns", Unit: "ns", Better: "lower"},
	{Name: "livedex.delta_docs_at_merge", Unit: "count", Better: "lower"},
	// Go runtime.
	{Name: "runtime.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Where a millisecond goes: self time over traced service time.
	{Name: "share.router_pct", Unit: "%", Better: "lower"},
	{Name: "share.engine_pct", Unit: "%", Better: "lower"},
	{Name: "share.eval_pct", Unit: "%", Better: "lower"},
	{Name: "share.buffer_pct", Unit: "%", Better: "lower"},
	{Name: "share.storage_pct", Unit: "%", Better: "lower"},
	{Name: "share.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// workloadSpec is one workload: how the deployment is opened and what
// the clients do.
type workloadSpec struct {
	Name string
	Why  string
	// algo and bufferPages configure every partition's engine.
	algo        bufir.Algorithm
	bufferPages int
	// shards > 1 opens a document-partitioned deployment.
	shards int
	// live turns the index mutable and makes client 0 ingest.
	live bool
}

// Engine settings shared by every workload.
const (
	engineWorkers = 2
	poolShards    = 2
	// Live cadence: client 0 ingests one document after every
	// ingestEvery-th of its own queries and merges after every
	// mergeEvery-th ingest.
	ingestEvery = 16
	mergeEvery  = 8
)

var workloads = []workloadSpec{
	{
		Name:        "refine-miss",
		Why:         "BAF over the mmap file, 512-page RAP pool (a quarter of the working set): seven in ten fetches miss, so Victim, FileStore.Read, CRC and DecodePage carry the load; 2 clients, 16 users",
		algo:        bufir.BAF,
		bufferPages: 512,
	},
	{
		Name:        "refine-safe",
		Why:         "rank-safe Maxscore, 4096-page pool: the evaluator's candidate and bound upkeep dominates and 3 in 4 fetches hit, so changes to misses, decode or storage must not move it; answers equal the oracle",
		algo:        bufir.Maxscore,
		bufferPages: 4096,
	},
	{
		Name:        "refine-sharded",
		Why:         "the same queries through WithShards(4), 512 pages per shard: each crosses the router, four engine queues and a merge; the only workload where scatter-gather and hand-off are a large share",
		algo:        bufir.BAF,
		bufferPages: 512,
		shards:      4,
	},
	{
		Name:        "refine-live",
		Why:         "live index: client 0 also ingests a document every 16 queries and merges every 8 ingests, so queries cross the overlay store and meet a cold pool after each publish while commits run beside them",
		algo:        bufir.BAF,
		bufferPages: 512,
		live:        true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// engineConfig is the per-partition engine configuration of w with
// the given worker count.
func (w workloadSpec) engineConfig(workers int) bufir.EngineConfig {
	return bufir.EngineConfig{
		EvalOptions: bufir.EvalOptions{Algorithm: w.algo, TopN: topN},
		Workers:     workers,
		Shards:      poolShards,
		BufferPages: w.bufferPages,
		Policy:      bufir.RAP,
	}
}
