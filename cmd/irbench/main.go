// Command irbench regenerates the tables and figures of Jónsson,
// Franklin & Srivastava (SIGMOD 1998) against the synthetic
// collection. Each experiment prints a paper-style table or data
// series; see DESIGN.md §4 for the experiment-to-artifact mapping.
//
// Usage:
//
//	irbench [-scale tiny|default|paper] [-seed N] [-exp LIST]
//	        [-topics N] [-points N] [-out FILE]
//
// -exp is a comma-separated subset of:
//
//	fig3 fig4 table4 table5 table12 table6 fig5 fig6 table7 fig7 fig8
//	multiuser concurrency lifecycle faults obs shards drift ablations
//	baselines compression feedback docsorted weblegend boolean dualbuf
//	summary effect refine-incr ranksafe ingest
//
// (fig56/fig78 are aliases for the figure pairs; default "all").
// The serving experiments (concurrency, lifecycle, faults, obs,
// refine-incr, shards, ingest) build a bufir.Index over the collection
// and serve it through Index.NewEngine — and NewRouter for shards —
// the same assembly a library user gets.
// concurrency sweeps -workers over the E12 workload with -cusers
// sessions and -disklat simulated read latency, comparing the
// one-latch pool against one sharded -cshards ways. lifecycle
// reuses -cusers/-cshards/-disklat to sweep per-request deadlines
// (QueryTimeout with OnDeadline=Partial and a bounded admission
// queue) across the untimed service-time distribution, reporting
// shed/timeout/partial counters and the deadline-vs-overlap@20
// tradeoff. faults reuses -cusers/-cshards to sweep a seeded
// transient-fault rate (-faultseed) over the same workload with the
// retry loop and per-query fault budget on, reporting the
// completed/degraded/error mix, retries spent, and overlap@20 against
// the fault-free pass. obs runs the same workload on an engine with the HTTP
// observability endpoint live on -obsaddr, prints the histogram/gauge
// report, and verifies the /metrics self-scrape against the engine's
// counters; -obshold keeps the endpoint up after the run so it can be
// curl'ed from outside. refine-incr grows -topics topic queries one
// term at a time against an engine with incremental refinement
// enabled, comparing each ADD-ONLY resubmission (accumulator-snapshot
// resume, result cache) with a cold evaluation of the same query.
// drift runs every replacement policy through one continuous
// three-phase stream — refinement bursts, a cold rotating-hot-set
// churn, then the same churn under a seeded transient-fault storm
// (-faultseed) — per buffer size, without flushing between phases,
// comparing per-phase disk reads; the LeCaR-style ADAPTIVE policy
// must track the winning static expert in each phase. With -benchjson
// FILE the sweep and acceptance verdict are persisted as JSON (make
// bench-policy writes BENCH_policy.json this way).
// ranksafe sweeps the rank-safe evaluator family (TA, NRA, MAXSCORE)
// against exhaustive evaluation and the paper's DF/BAF filters across
// buffer sizes and policies (E27), reporting pages read, overlap@20
// and bit-exactness per cell; with -benchjson FILE the sweep and its
// acceptance verdict are persisted (make bench-ranksafe writes
// BENCH_ranksafe.json this way).
// shards sweeps the document-partitioned serving tier over
// -shardcounts partitions (E25): the E21-style workload with -cusers
// sessions and -disklat read latency runs through the public
// scatter-gather Router, reporting QPS, p50/p99 and speedup; with
// -benchjson FILE the sweep is persisted as JSON (make bench-serve
// writes BENCH_serve.json this way).
// ingest runs the E28 live-ingestion study: one engine with -cusers
// readers serves the topic workload through a frozen phase, a steady
// ingestion phase (a writer appending documents to the delta index),
// and a merge storm (ingestion plus frequent generational
// compactions), reporting per-phase QPS and overlap@20 against the
// frozen answers plus the exactness verdict (merged generation
// bit-identical to a pure-delta replay); -ingestq sets the queries
// per phase, and with -benchjson FILE the run is persisted (make
// bench-ingest writes BENCH_ingest.json this way).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"bufir/internal/corpus"
	"bufir/internal/experiments"
	"bufir/internal/refine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irbench: ")
	var (
		scale     = flag.String("scale", "default", "collection scale: tiny, default, or paper")
		seed      = flag.Int64("seed", 1998, "generator seed")
		exps      = flag.String("exp", "all", "comma-separated experiments to run")
		topics    = flag.Int("topics", 0, "topics for summary/effect experiments (0 = all)")
		points    = flag.Int("points", 10, "buffer-size sweep points")
		outPath   = flag.String("out", "", "write output to file instead of stdout")
		cadd      = flag.Float64("cadd", 0, "override c_add filtering constant (0 = collection-tuned default)")
		cins      = flag.Float64("cins", 0, "override c_ins filtering constant (0 = collection-tuned default)")
		csvDir    = flag.String("csv", "", "also write each experiment's data series as CSV into this directory")
		workers   = flag.String("workers", "1,2,4,8", "worker counts swept by the concurrency experiment")
		cusers    = flag.Int("cusers", 16, "concurrent sessions in the concurrency experiment")
		cshards   = flag.Int("cshards", 8, "buffer-pool latch shards in the concurrency experiment")
		disklat   = flag.Duration("disklat", 200*time.Microsecond, "simulated disk read latency for the concurrency experiment")
		obsaddr   = flag.String("obsaddr", "127.0.0.1:0", "listen address of the obs experiment's metrics endpoint")
		obshold   = flag.Duration("obshold", 0, "keep the obs experiment's endpoint up this long after the run")
		faultseed = flag.Int64("faultseed", 1998, "seed of the faults experiment's fault schedule")
		shardcnts = flag.String("shardcounts", "1,2,4,8,16", "shard counts swept by the shards experiment")
		passes    = flag.Int("passes", 2, "workload passes per user in the shards experiment")
		benchjson = flag.String("benchjson", "", "write machine-readable results of JSON-capable experiments to this file")
		ingestq   = flag.Int("ingestq", 400, "queries per phase in the ingest experiment")
	)
	flag.Parse()

	var cfg corpus.Config
	switch *scale {
	case "tiny":
		cfg = corpus.TinyConfig(*seed)
	case "default":
		cfg = corpus.DefaultConfig(*seed)
	case "paper":
		cfg = corpus.PaperConfig(*seed)
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	fmt.Fprintf(w, "irbench: scale=%s seed=%d (N=%d docs, V=%d terms, page=%d entries)\n",
		*scale, *seed, cfg.NumDocs, cfg.VocabSize, cfg.PageSize)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *cadd > 0 || *cins > 0 {
		p := env.Params()
		if *cadd > 0 {
			p.CAdd = *cadd
		}
		if *cins > 0 {
			p.CIns = *cins
		}
		env.SetParams(p)
		fmt.Fprintf(w, "filtering constants overridden: c_add=%g c_ins=%g\n", p.CAdd, p.CIns)
	}
	fmt.Fprintf(w, "environment built in %v: %d inverted-list pages, conversion table %d bytes\n\n",
		time.Since(start).Round(time.Millisecond), env.Idx.NumPagesTotal, env.Conv.SizeBytes())

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	section := func(name string) bool { return all || want[name] }
	div := func() { fmt.Fprintln(w, "\n"+strings.Repeat("-", 78)+"\n") }

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	type formatter interface{ Format(io.Writer) }
	run := func(name string, f func() (formatter, error)) {
		if !section(name) {
			return
		}
		t0 := time.Now()
		res, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		res.Format(w)
		if *csvDir != "" {
			if cw, ok := res.(experiments.CSVWriter); ok {
				path := fmt.Sprintf("%s/%s.csv", *csvDir, name)
				f, err := os.Create(path)
				if err != nil {
					log.Fatal(err)
				}
				if err := cw.WriteCSV(f); err != nil {
					log.Fatalf("%s: csv: %v", name, err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(w, "[csv written to %s]\n", path)
			}
		}
		if *benchjson != "" {
			if jw, ok := res.(interface{ WriteBenchJSON(io.Writer) error }); ok {
				f, err := os.Create(*benchjson)
				if err != nil {
					log.Fatal(err)
				}
				if err := jw.WriteBenchJSON(f); err != nil {
					log.Fatalf("%s: json: %v", name, err)
				}
				if err := f.Close(); err != nil {
					log.Fatal(err)
				}
				fmt.Fprintf(w, "[json written to %s]\n", *benchjson)
			}
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
		div()
	}

	run("fig3", func() (formatter, error) { return env.RunFig3() })
	run("fig4", func() (formatter, error) { return env.RunFig4() })
	run("table4", func() (formatter, error) { return env.RunTable4() })
	run("table5", func() (formatter, error) { return env.RunTable5() })
	run("table12", func() (formatter, error) { return env.RunWorkedExample() })
	run("table6", func() (formatter, error) { return env.RunTable6() })
	if want["fig56"] { // alias for both ADD-ONLY figures
		want["fig5"], want["fig6"] = true, true
	}
	if want["fig78"] { // alias for both ADD-DROP figures
		want["fig7"], want["fig8"] = true, true
	}
	run("fig5", func() (formatter, error) { return env.RunSweep("Figure 5", 0, refine.AddOnly, *points) })
	run("fig6", func() (formatter, error) { return env.RunSweep("Figure 6", 1, refine.AddOnly, *points) })
	run("table7", func() (formatter, error) { return env.RunTable7() })
	run("fig7", func() (formatter, error) { return env.RunSweep("Figure 7", 0, refine.AddDrop, *points) })
	run("fig8", func() (formatter, error) { return env.RunSweep("Figure 8", 1, refine.AddDrop, *points) })
	run("multiuser", func() (formatter, error) { return env.RunMultiUser(*points) })
	run("concurrency", func() (formatter, error) {
		return env.RunConcurrency(*cusers, *cshards, parseCounts("workers", *workers), *disklat, *points)
	})
	run("lifecycle", func() (formatter, error) {
		return env.RunLifecycle(*cusers, 4, *cshards, *disklat)
	})
	run("faults", func() (formatter, error) {
		return env.RunFaults(*cusers, 4, *cshards, uint64(*faultseed))
	})
	run("obs", func() (formatter, error) {
		return env.RunObs(*obsaddr, *cusers, 4, *cshards, *disklat, *points, *obshold)
	})
	run("shards", func() (formatter, error) {
		return env.RunShards(*cusers, 4, *passes, parseCounts("shardcounts", *shardcnts), *disklat)
	})
	run("drift", func() (formatter, error) {
		return env.RunDrift(*points, uint64(*faultseed))
	})
	run("ablations", func() (formatter, error) { return env.RunAblations() })
	run("baselines", func() (formatter, error) { return env.RunBaselines(*points) })
	run("compression", func() (formatter, error) { return env.RunCompression() })
	run("feedback", func() (formatter, error) { return env.RunFeedback(0, *points) })
	run("docsorted", func() (formatter, error) { return env.RunDocSorted(*points) })
	run("weblegend", func() (formatter, error) { return env.RunWebLegend(*topics) })
	run("boolean", func() (formatter, error) { return env.RunBoolean(*topics) })
	run("dualbuf", func() (formatter, error) { return env.RunDualBuf() })
	run("summary", func() (formatter, error) { return env.RunSummary(refine.AddOnly, *topics, 6) })
	run("effect", func() (formatter, error) { return env.RunEffectiveness(effTopics(*topics), 4) })
	run("refine-incr", func() (formatter, error) { return env.RunRefineIncr(*topics) })
	run("ranksafe", func() (formatter, error) { return env.RunRankSafe(*points) })
	run("ingest", func() (formatter, error) { return env.RunIngest(*cusers, *ingestq) })

	fmt.Fprintf(w, "total time %v\n", time.Since(start).Round(time.Millisecond))
}

// effTopics bounds the effectiveness experiment, which multiplies the
// sweep by four policies: default to 20 topics when unrestricted.
func effTopics(requested int) int {
	if requested > 0 {
		return requested
	}
	return 20
}

// parseCounts parses the sweep list ("1,2,4,8") given to flag name.
func parseCounts(name, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n < 1 {
			log.Fatalf("bad -%s entry %q", name, part)
		}
		out = append(out, n)
	}
	return out
}
