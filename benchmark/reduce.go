package main

import (
	"runtime"
	"sort"

	"bufir"
)

// tracedInputs is everything the two passes of a traced run left
// behind.
type tracedInputs struct {
	spans        spanSet
	sf           *surface
	as           *assembly
	counts       assemblyCounts
	queries      float64
	wallA, wallB float64
	m0, m1       *runtime.MemStats
	live         *liveDriver
	storeReads   int64
	evictions    int64 // during the recorded passes of pass B
}

// reduceTraced turns spans, logs and counters into the per-layer
// metrics of res.
func reduceTraced(res *runResult, w workloadSpec, in tracedInputs) {
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	for name, v := range in.spans {
		set(name, v)
	}
	n := int(in.queries)

	// Engine and router, from pass A's outside timing. A request's
	// blocking path is its span: on the sharded workload the router's,
	// whose shard calls overlap, so the time they cover is shared out
	// among them in proportion to their own spans.
	var handoff, service []float64
	for _, e := range in.sf.engines {
		for i, sp := range e.spans {
			handoff = append(handoff, float64(sp.dur()-e.serviceNs[i])/1e3)
			service = append(service, float64(e.serviceNs[i])/1e3)
		}
	}
	set("engine.handoff_us_p50", median(handoff))
	set("engine.service_us_p50", median(service))
	var shed, timeouts, errs, degraded int64
	for _, e := range in.sf.engines {
		s := e.eng.Stats()
		shed, timeouts, errs, degraded = shed+s.Shed, timeouts+s.Timeouts, errs+s.Errors, degraded+s.Degraded
	}
	set("engine.shed", float64(shed))
	set("engine.timeouts", float64(timeouts))
	set("engine.errors", float64(errs))
	set("engine.degraded", float64(degraded))

	// engineNs sums the hand-off on the blocking paths.
	var engineNs float64
	shards := in.sf.engines
	var routerSelfA, gap []float64
	for i := 0; i < n; i++ {
		calls := make([]interval, len(shards))
		durs := make([]float64, len(shards))
		var spanSum, handoffSum float64
		for j, e := range shards {
			calls[j] = e.spans[i]
			durs[j] = float64(e.spans[i].dur())
			spanSum += durs[j]
			handoffSum += durs[j] - float64(e.serviceNs[i])
		}
		if in.sf.router == nil {
			engineNs += handoffSum
			continue
		}
		routed := in.sf.routed[i]
		self := float64(selfTime(routed, calls))
		engineNs += (float64(routed.dur()) - self) * handoffSum / spanSum
		routerSelfA = append(routerSelfA, self/1e3)
		sort.Float64s(durs)
		gap = append(gap, (durs[len(durs)-1]-median(durs))/1e3)
	}
	if in.sf.router != nil {
		set("router.self_us_p50", median(routerSelfA))
		set("router.straggler_gap_us_p50", median(gap))
		set("router.fanout", float64(len(handoff))/in.queries)
	}

	// Everything below the engine, from pass B's spans.
	var byKind [numKinds][]float64
	var light [numLight][]float64
	var missSelf []float64
	perPart := make([][]layerTimes, len(in.as.parts))
	for j, p := range in.as.parts {
		var kinds [numKinds][]float64
		var ms []float64
		perPart[j], kinds, ms = p.rec.reduce(n)
		for k := range kinds {
			byKind[k] = append(byKind[k], kinds[k]...)
		}
		for k := range light {
			light[k] = append(light[k], p.rec.light[k].sampled...)
		}
		missSelf = append(missSelf, ms...)
	}
	// sum is pass B's blocking path by layer; rootNs its length;
	// routerNs the router's own part of it.
	var sum layerTimes
	var routerNs, rootNs, evalSelf float64
	for i := 0; i < n; i++ {
		calls := make([]interval, len(perPart))
		var all layerTimes
		var spanSum float64
		for j := range perPart {
			lt := perPart[j][i]
			calls[j] = lt.root
			spanSum += float64(lt.root.dur())
			all.engine += lt.engine
			all.eval += lt.eval
			all.buffer += lt.buffer
			all.storage += lt.storage
		}
		// Evaluator self time counts over all partitions, not only
		// along the blocking path: it is work done per query.
		evalSelf += float64(all.eval)
		root, cover := spanSum, spanSum
		if in.as.top != nil {
			routed := in.as.top.spans[i].interval
			self := float64(selfTime(routed, calls))
			root, cover = float64(routed.dur()), float64(routed.dur())-self
			routerNs += self
		}
		rootNs += root
		scale := cover / spanSum
		sum.engine += int64(scale * float64(all.engine))
		sum.eval += int64(scale * float64(all.eval))
		sum.buffer += int64(scale * float64(all.buffer))
		sum.storage += int64(scale * float64(all.storage))
	}

	evalName := "eval"
	if w.algo == bufir.Maxscore {
		evalName = "evalsafe"
		set("evalsafe.pages_per_query", float64(in.counts.pagesProcessed)/in.queries)
	} else {
		set("eval.inquiries_per_query", float64(in.counts.inquiries)/in.queries)
		set("eval.accumulators_p50", median(in.counts.accumulators))
	}
	set(evalName+".self_us_per_query", evalSelf/1e3/in.queries)
	if in.counts.entries > 0 {
		set(evalName+".ns_per_entry", evalSelf/float64(in.counts.entries))
	}

	hits, misses := float64(len(byKind[kindFetchHit])), float64(len(byKind[kindFetchMiss]))
	if hits+misses > 0 {
		set("buffer.hit_ratio", hits/(hits+misses))
	}
	set("buffer.evictions_per_query", float64(in.evictions)/in.queries)
	set("buffer.hit_ns", medianOrZero(byKind[kindFetchHit]))
	set("buffer.unpin_ns", medianOrZero(light[lightUnpin]))
	set("buffer.resident_inquiry_ns", medianOrZero(light[lightResident]))
	set("buffer.miss_self_ns", medianOrZero(missSelf))
	set("buffer.setquery_us", medianOrZero(byKind[kindSetQuery])/1e3)
	set("storage.read_ns", medianOrZero(append(byKind[kindStoreRead], byKind[kindOverlay]...)))
	set("storage.reads", float64(in.storeReads))
	set("livedex.overlay_read_ns", medianOrZero(byKind[kindOverlay]))

	if l := in.live; l != nil {
		ing := sortedCopy(l.ingestMs)
		set("livedex.ingest_p50_ms", percentile(ing, 0.50))
		set("livedex.ingest_p95_ms", percentile(ing, 0.95))
		set("livedex.merge_p50_ms", medianOrZero(l.mergeMs))
		set("livedex.epochs_per_s", float64(l.publishes)/in.wallA)
		set("livedex.cold_reads_after_publish", medianOrZero(l.coldReads))
		set("livedex.delta_docs_at_merge", mergeEvery) // merges are explicit: the cadence decides
	}

	set("runtime.allocs_per_query", float64(in.m1.Mallocs-in.m0.Mallocs)/in.queries)
	set("runtime.gc_cycles", float64(in.m1.NumGC-in.m0.NumGC))
	set("runtime.gc_pause_ms", float64(in.m1.PauseTotalNs-in.m0.PauseTotalNs)/1e6)

	// Shares of the traced service time: pass B's blocking path plus
	// the hand-off pass A measured on the same path.
	engineNs += float64(sum.engine)
	total := rootNs + engineNs - float64(sum.engine)
	attributed := routerNs + float64(sum.attributed())
	unattributed := 100 * (rootNs - attributed) / total
	set("share.router_pct", 100*routerNs/total)
	set("share.engine_pct", 100*engineNs/total)
	set("share.eval_pct", 100*float64(sum.eval)/total)
	set("share.buffer_pct", 100*float64(sum.buffer)/total)
	set("share.storage_pct", 100*float64(sum.storage)/total)
	set("share.unattributed_pct", unattributed)
	set("trace.overhead_pct", 100*(in.wallB/in.wallA-1))
	if unattributed >= 10 {
		res.problem("%.1f %% of the traced service time is attributed to no layer", unattributed)
	}
}

// medianOrZero is median with 0 for an empty sample: a layer that is
// not on the workload's path.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
