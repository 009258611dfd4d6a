package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"bufir"
)

// setupReps is how many times a run sets the deployment up; setup_s is
// the median.
const setupReps = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports: the last line of its output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// problems explains a false Correct; info carries counts worth
	// printing beside the metrics. Neither is part of the result line.
	problems []string
	info     []string
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) set(specs []metricSpec, name string, v float64) {
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// openDeployment opens the index file the way the workload's users
// would: bufir.Open, sharded or live as the workload says.
func openDeployment(w workloadSpec, path string) (*bufir.Service, error) {
	opts := []bufir.Option{bufir.WithEngine(w.engineConfig(engineWorkers))}
	if w.shards > 1 {
		opts = append(opts, bufir.WithShards(w.shards))
	}
	svc, err := bufir.Open(path, opts...)
	if err != nil {
		return nil, err
	}
	if w.live {
		if err := svc.EnableLiveUpdates(bufir.LiveOptions{}); err != nil {
			_ = svc.Close()
			return nil, err
		}
	}
	return svc, nil
}

// firstTouch sends every user's first query, so that whatever a
// deployment builds lazily per user or per engine counts as set-up.
func firstTouch(ctx context.Context, svc *bufir.Service, st *stream) error {
	for _, steps := range st.users {
		if _, err := svc.SearchContext(ctx, steps[0].user, steps[0].q); err != nil {
			return err
		}
	}
	return nil
}

// servingLaw checks Queries == Completed+Timeouts+Canceled+Errors+
// Degraded and that nothing was shed, timed out, errored or degraded.
func servingLaw(res *runResult, where string, s bufir.EngineStats) {
	if sum := s.Completed + s.Timeouts + s.Canceled + s.Errors + s.Degraded; s.Queries != sum {
		res.problem("%s: serving law broken: queries %d != outcome buckets %d", where, s.Queries, sum)
	}
	if bad := s.Shed + s.Timeouts + s.Canceled + s.Errors + s.Degraded; bad != 0 {
		res.problem("%s: %d requests shed, timed out, canceled, errored or degraded", where, bad)
	}
}

// runConfig says what one run runs.
type runConfig struct {
	w       workloadSpec
	seed    int64
	seconds float64
	corpus  bufir.CollectionConfig
	// tamper, when set, edits the oracle before it is used: the tests'
	// way of showing that a wrong answer fails a run.
	tamper func(*oracle)
}

// newOracle builds the stream's oracle and lets rc.tamper at it.
func (rc runConfig) newOracle(ix *bufir.Index, st *stream) (*oracle, error) {
	orc, err := buildOracle(ix, st)
	if err == nil && rc.tamper != nil {
		rc.tamper(orc)
	}
	return orc, err
}

// runEndToEnd is one untraced run: what a user of the deployment
// bufir.Open builds would see.
func runEndToEnd(ctx context.Context, rc runConfig) (*runResult, error) {
	w, seed, seconds, cfg := rc.w, rc.seed, rc.seconds, rc.corpus
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &runResult{Correct: true, Metrics: map[string]metricValue{}}

	// Set the deployment up setupReps times and keep the last one. The
	// query stream needs a collection, so it is derived (untimed) from
	// the first repetition's.
	var (
		fx     *fixture
		dep    *bufir.Service
		st     *stream
		orc    *oracle
		setups []float64
	)
	closeDep := func() {
		if dep != nil {
			if err := dep.Close(); err != nil {
				res.problem("closing deployment: %v", err)
			}
			dep = nil
		}
	}
	defer closeDep()
	for rep := 0; rep < setupReps; rep++ {
		closeDep()
		spans := spanSet{}
		if fx, err = buildFixture(cfg, dir, spans); err != nil {
			return nil, err
		}
		if err := spans.timeSpan("open.open_s", func() (err error) {
			dep, err = openDeployment(w, fx.path)
			return err
		}); err != nil {
			return nil, fmt.Errorf("opening %s: %w", w.Name, err)
		}
		if st == nil {
			seqs, err := buildSequences(fx)
			if err != nil {
				return nil, err
			}
			st = buildStream(seqs, seed)
			if orc, err = rc.newOracle(fx.ix, st); err != nil {
				return nil, err
			}
		}
		if err := spans.timeSpan("first_touch_s", func() error {
			return firstTouch(ctx, dep, st)
		}); err != nil {
			return nil, fmt.Errorf("first queries on %s: %w", w.Name, err)
		}
		setups = append(setups, spans.total())
	}
	bytesPerPosting := float64(fx.fileBytes) / float64(fx.postings)
	docs := newIngestSource(fx, seed)
	// The in-memory fixture has served its purpose; dropping it keeps
	// heap_live_mb about the program under test.
	fx.col, fx.ix = nil, nil

	run := newRunner(st, orc, w.algo == bufir.Maxscore, numClients, func(ctx context.Context, _ int, s step) (*bufir.Result, error) {
		return dep.SearchContext(ctx, s.user, s.q)
	})
	if w.live {
		run.live = &liveDriver{src: docs, ingest: indexIngest(dep.Index()), merge: dep.MergeContext}
	}

	var before, after bufir.EngineStats
	var ms0, ms1 runtime.MemStats
	run.run(ctx, false, 0, 1) // warm-up pass
	runtime.GC()
	before = dep.Stats()
	runtime.ReadMemStats(&ms0)
	wall, passes := run.run(ctx, true, seconds, 0)
	runtime.ReadMemStats(&ms1)
	after = dep.Stats()
	runtime.GC()
	var msLive runtime.MemStats
	runtime.ReadMemStats(&msLive)

	tot := run.totals()
	queries := float64(len(tot.latencyMs))
	res.Attempted, res.Failed = tot.attempted, tot.failed
	if tot.failed > 0 {
		res.problem("%d of %d operations failed, first: %s", tot.failed, tot.attempted, tot.firstFail)
	}
	servingLaw(res, w.Name, after)
	if got := after.Queries - before.Queries; got != int64(queries) {
		res.problem("%s: served %d queries in the window, clients sent %d", w.Name, got, int64(queries))
	}
	if w.live {
		if err := checkLiveRebuild(ctx, dep, run.live, st, cfg); err != nil {
			res.problem("%s: %v", w.Name, err)
		}
	}

	rates, qs := run.perPass(tot, 0.50, 0.95)
	res.set(endToEnd, "qps", median(rates))
	res.set(endToEnd, "latency_p50_ms", median(qs[0]))
	res.set(endToEnd, "latency_p95_ms", median(qs[1]))
	res.set(endToEnd, "pages_read_per_query", float64(after.PagesRead-before.PagesRead)/queries)
	res.set(endToEnd, "entries_per_query", float64(after.EntriesProcessed-before.EntriesProcessed)/queries)
	res.set(endToEnd, "overlap_at_20", tot.overlapSum/queries)
	res.set(endToEnd, "alloc_kb_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/queries)
	res.set(endToEnd, "heap_live_mb", float64(msLive.HeapAlloc)/(1<<20))
	res.set(endToEnd, "index_bytes_per_posting", bytesPerPosting)
	res.set(endToEnd, "setup_s", median(setups))
	res.info = append(res.info,
		fmt.Sprintf("samples %d", len(tot.latencyMs)),
		fmt.Sprintf("passes %d", passes),
		fmt.Sprintf("samples_per_pass %d", st.steps),
		fmt.Sprintf("samples_beyond_p95_per_pass %d", samplesBeyond(st.steps, 0.95)),
		fmt.Sprintf("highest_percentile_a_pass_supports %g", 100*supportedTail(st.steps)),
		fmt.Sprintf("window_s %.3f", wall.Seconds()),
		fmt.Sprintf("gomaxprocs %d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("clients %d", numClients),
	)
	if w.live {
		res.info = append(res.info, fmt.Sprintf("ingested_docs %d", len(run.live.docs)))
	}
	closeDep()
	return res, nil
}

// checkLiveRebuild merges what is pending and then holds the served
// index against a from-scratch rebuild of the same corpus: the
// generated collection plus every ingested document under the id the
// index assigned. Every user's last query, answered exhaustively on
// both, must agree in every bit.
func checkLiveRebuild(ctx context.Context, svc *bufir.Service, live *liveDriver, st *stream, cfg bufir.CollectionConfig) error {
	if err := svc.MergeContext(ctx); err != nil {
		return fmt.Errorf("final merge: %w", err)
	}
	col, err := bufir.GenerateCollection(cfg)
	if err != nil {
		return err
	}
	at := make(map[string]int, len(col.Lists))
	for i, l := range col.Lists {
		at[l.Name] = i
	}
	grown := make(map[int]bool)
	for i, d := range live.docs {
		if want := bufir.DocID(col.NumDocs + i); d.id != want {
			return fmt.Errorf("ingested document %d got id %d, want %d", i, d.id, want)
		}
		for term, f := range d.counts {
			li, ok := at[term]
			if !ok {
				return fmt.Errorf("ingested term %q is not in the vocabulary", term)
			}
			if !grown[li] {
				col.Lists[li].Entries = append([]bufir.Entry(nil), col.Lists[li].Entries...)
				grown[li] = true
			}
			col.Lists[li].Entries = append(col.Lists[li].Entries, bufir.Entry{Doc: d.id, Freq: int32(f)})
		}
	}
	col.NumDocs += len(live.docs)
	rebuilt, err := bufir.NewIndex(col)
	if err != nil {
		return fmt.Errorf("rebuilding: %w", err)
	}
	served, err := exhaustiveSession(svc.Index())
	if err != nil {
		return err
	}
	fresh, err := exhaustiveSession(rebuilt)
	if err != nil {
		return err
	}
	if got, want := svc.Index().NumDocs(), rebuilt.NumDocs(); got != want {
		return fmt.Errorf("served index holds %d documents, rebuild %d", got, want)
	}
	for _, steps := range st.users {
		last := steps[len(steps)-1]
		a, err := served.SearchContext(ctx, last.q)
		if err != nil {
			return err
		}
		b, err := fresh.SearchContext(ctx, last.q)
		if err != nil {
			return err
		}
		if !identical(a.Top, b.Top) {
			return errors.New("after the final merge, " + describeQuery(last) + " differs from a rebuilt index")
		}
	}
	return nil
}

// settle waits for goroutines started by closed engines to exit and
// reports how many more run than at baseline.
func settle(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine() - baseline
}
