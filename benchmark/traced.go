package main

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"bufir"
)

// assemblyCounts sums what the traced pass's answers report.
type assemblyCounts struct {
	queries, pagesRead, entries, pagesProcessed, inquiries int64
	accumulators                                           []float64
}

func (c *assemblyCounts) add(res *bufir.Result) {
	c.queries++
	c.pagesRead += int64(res.PagesRead)
	c.entries += int64(res.EntriesProcessed)
	c.pagesProcessed += int64(res.PagesProcessed)
	c.inquiries += int64(res.SelectionInquiries)
	c.accumulators = append(c.accumulators, float64(res.Accumulators))
}

// runTraced is one traced run of workload w: a serial pass through the
// public constructors (the reference, and the engine's and router's
// numbers), then the same pass through the decorated assembly (every
// layer below), then the replays.
func runTraced(ctx context.Context, rc runConfig) (*runResult, error) {
	w, seed, seconds, cfg := rc.w, rc.seed, rc.seconds, rc.corpus
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &runResult{Correct: true, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.set(perLayer, m.Name, 0)
	}

	spans := spanSet{}
	fx, err := buildFixture(cfg, dir, spans)
	if err != nil {
		return nil, err
	}
	seqs, err := buildSequences(fx)
	if err != nil {
		return nil, err
	}
	st := buildStream(seqs, seed)
	orc, err := rc.newOracle(fx.ix, st)
	if err != nil {
		return nil, err
	}
	docsA, docsB := newIngestSource(fx, seed), newIngestSource(fx, seed)
	fx.col, fx.ix = nil, nil
	exact := w.algo == bufir.Maxscore

	// Pass A: the public surface, one worker per engine, one client.
	sf, err := openSurface(w, fx.path, spans)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", w.Name, err)
	}
	defer sf.close()
	runA := newRunner(st, orc, exact, 1, func(ctx context.Context, _ int, s step) (*bufir.Result, error) {
		return sf.search(ctx, s)
	})
	if w.live {
		runA.live = &liveDriver{src: docsA, ingest: indexIngest(sf.indexes[0]), merge: sf.engines[0].eng.MergeContext}
	}
	warm, _ := runA.run(ctx, false, 0, 1)
	spans["warmup_s"] = warm.Seconds()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := sf.stats()
	sf.record(true)
	wallA, passes := runA.run(ctx, true, seconds/2, 0)
	runtime.ReadMemStats(&m1)
	after := sf.stats()
	sf.check(res)
	totA := runA.totals()
	queries := float64(len(totA.latencyMs))

	// Pass B: the decorated assembly, the same passes.
	as, err := openAssembly(w, fx.path)
	if err != nil {
		return nil, fmt.Errorf("assembling %s: %w", w.Name, err)
	}
	defer as.close()
	var counts assemblyCounts
	runB := newRunner(st, orc, exact, 1, func(ctx context.Context, _ int, s step) (*bufir.Result, error) {
		r, err := as.search(ctx, s)
		if err == nil && as.parts[0].rec.on {
			counts.add(r)
		}
		return r, err
	})
	if w.live {
		runB.live = &liveDriver{src: docsB, ingest: as.ingest, merge: as.merge}
	}
	runB.run(ctx, false, 0, 1)
	evicted := as.evictions()
	as.record(true)
	wallB, _ := runB.run(ctx, true, 0, passes)
	as.record(false)
	evicted = as.evictions() - evicted
	totB := runB.totals()

	res.Attempted = totA.attempted + totB.attempted
	res.Failed = totA.failed + totB.failed
	for _, t := range []clientTally{totA, totB} {
		if t.failed > 0 {
			res.problem("%d of %d operations failed, first: %s", t.failed, t.attempted, t.firstFail)
		}
	}

	// The decorated assembly is the shipped program only if it did the
	// same work: equal pages read and entries processed.
	readA, entriesA := after.PagesRead-before.PagesRead, after.EntriesProcessed-before.EntriesProcessed
	if counts.queries != int64(queries) || counts.pagesRead != readA || counts.entries != entriesA {
		res.problem("traced pass did other work than the public API: queries %d vs %d, pages read %d vs %d, entries %d vs %d",
			counts.queries, int64(queries), counts.pagesRead, readA, counts.entries, entriesA)
	}
	var storeReads int64
	pinned := 0
	for _, p := range as.parts {
		storeReads += p.storeReads()
		pinned += p.pinnedFrames()
	}
	if storeReads != counts.pagesRead {
		res.problem("store seam delivered %d pages, answers report %d read", storeReads, counts.pagesRead)
	}
	if pinned != 0 {
		res.problem("assembly: %d frames still pinned", pinned)
	}

	reduceTraced(res, w, tracedInputs{
		spans: spans, sf: sf, as: as, counts: counts,
		queries: queries, wallA: wallA.Seconds(), wallB: wallB.Seconds(),
		m0: &m0, m1: &m1, live: runA.live, storeReads: storeReads, evictions: evicted,
	})
	if as.file != nil && !w.live {
		// A frozen single partition reads the file itself: replay the
		// file and codec layers over the pages it delivered.
		rep, err := replayCodec(fx.path, as.parts[0].store.pages)
		if err != nil {
			return nil, err
		}
		res.set(perLayer, "indexfile.pageblob_ns", rep.pageBlobNs)
		res.set(perLayer, "codec.decode_ns_per_entry", rep.decodeNsPerEntry)
		res.set(perLayer, "codec.decode_allocs_per_page", rep.allocsPerPage)
		res.set(perLayer, "codec.bytes_per_entry", rep.bytesPerEntry)
		payload, err := payloadBytesPerPosting(fx.path, fx.postings)
		if err != nil {
			return nil, err
		}
		res.set(perLayer, "indexfile.payload_bytes_per_posting", payload)
	}
	res.set(perLayer, "rank.topn_us", replayTopN(as.parts[0].pix.DocLen, int(median(counts.accumulators))))
	res.info = append(res.info,
		fmt.Sprintf("passes %d", passes),
		fmt.Sprintf("queries %d", int64(queries)),
		fmt.Sprintf("untraced_serial_s %.3f", wallA.Seconds()),
		fmt.Sprintf("traced_serial_s %.3f", wallB.Seconds()),
		fmt.Sprintf("pages_read %d", counts.pagesRead),
		fmt.Sprintf("entries_processed %d", counts.entries),
	)
	if err := sf.close(); err != nil {
		res.problem("closing surface: %v", err)
	}
	if err := as.close(); err != nil {
		res.problem("closing assembly: %v", err)
	}
	return res, nil
}
