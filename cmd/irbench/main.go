// Command irbench regenerates the tables and figures of Jónsson,
// Franklin & Srivastava (SIGMOD 1998) against the synthetic
// collection. Each experiment prints a paper-style table or data
// series; see DESIGN.md §4 for the experiment-to-artifact mapping and
// EXPERIMENTS.md for what each one measures.
//
// Usage:
//
//	irbench [-scale tiny|default|paper] [-seed N] [-exp LIST]
//	        [-topics N] [-points N] [-out FILE] [-benchjson FILE]
//
// -exp is a comma-separated list of experiment names; irbench -h
// lists them (default "all"). An unknown name fails before anything
// runs. -topics limits the per-topic experiments (summary, weblegend,
// boolean, effect) to the first N topics; at 0, its default, or above
// the topic count, summary runs every topic, weblegend 8, boolean 20
// and effect 20 (every topic when above). -benchjson FILE also writes the result of the one experiment
// -exp names as indented JSON (make bench-policy and make
// bench-ranksafe write BENCH_policy.json and BENCH_ranksafe.json this
// way).
//
// The serving experiments (concurrency, lifecycle, faults, obs,
// shards, ingest) build a bufir.Index over the collection
// and serve it through Index.NewEngine — and NewRouter for shards —
// the same assembly a library user gets. Their workload is fixed by
// the constants below; -seed also seeds the fault schedules of faults
// and drift. obs serves the HTTP observability endpoint on -obsaddr
// while it runs, and -obshold keeps it up after the run so it can be
// curl'ed from outside.
package main

import (
	"encoding/json"
	"errors"
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

// The serving experiments' workload: servingUsers concurrent sessions
// on engines of servingWorkers workers over a pool of latchShards
// latch shards, each page read sleeping diskLatency.
const (
	servingUsers   = 16
	servingWorkers = 4
	latchShards    = 8
	diskLatency    = 200 * time.Microsecond
	shardPasses    = 2   // workload passes per user in shards
	ingestPerPhase = 400 // queries per phase in ingest
	effectTopics   = 20  // effect's topics when -topics is 0
)

var (
	workerCounts = []int{1, 2, 4, 8}     // concurrency's worker sweep
	shardCounts  = []int{1, 2, 4, 8, 16} // shards' partition sweep
)

// bench is what an experiment runs on: the environment, whose Run*
// methods it promotes, and the flags.
type bench struct {
	*experiments.Env
	seed           int64
	topics, points int
	obsaddr        string
	obshold        time.Duration
}

// result is what every experiment returns: a printable table.
type result interface{ Format(io.Writer) }

// experiment is one -exp name and its runner. alias, when set, names
// a group that runs the entry too (fig56 runs fig5 and fig6).
type experiment struct {
	name, alias string
	run         func(bench) (result, error)
}

// registry holds every experiment, in the order irbench runs them.
var registry = []experiment{
	{"fig3", "", func(b bench) (result, error) { return b.RunFig3() }},
	{"fig4", "", func(b bench) (result, error) { return b.RunFig4() }},
	{"table4", "", func(b bench) (result, error) { return b.RunTable4() }},
	{"table5", "", func(b bench) (result, error) { return b.RunTable5() }},
	{"table12", "", func(b bench) (result, error) { return b.RunWorkedExample() }},
	{"table6", "", func(b bench) (result, error) { return b.RunTable6() }},
	{"fig5", "fig56", func(b bench) (result, error) { return b.RunSweep("Figure 5", 0, refine.AddOnly, b.points) }},
	{"fig6", "fig56", func(b bench) (result, error) { return b.RunSweep("Figure 6", 1, refine.AddOnly, b.points) }},
	{"table7", "", func(b bench) (result, error) { return b.RunTable7() }},
	{"fig7", "fig78", func(b bench) (result, error) { return b.RunSweep("Figure 7", 0, refine.AddDrop, b.points) }},
	{"fig8", "fig78", func(b bench) (result, error) { return b.RunSweep("Figure 8", 1, refine.AddDrop, b.points) }},
	{"multiuser", "", func(b bench) (result, error) { return b.RunMultiUser(b.points) }},
	{"concurrency", "", func(b bench) (result, error) {
		return b.RunConcurrency(servingUsers, latchShards, workerCounts, diskLatency, b.points)
	}},
	{"lifecycle", "", func(b bench) (result, error) {
		return b.RunLifecycle(servingUsers, servingWorkers, latchShards, diskLatency)
	}},
	{"faults", "", func(b bench) (result, error) {
		return b.RunFaults(servingUsers, servingWorkers, latchShards, uint64(b.seed))
	}},
	{"obs", "", func(b bench) (result, error) {
		return b.RunObs(b.obsaddr, servingUsers, servingWorkers, latchShards, diskLatency, b.points, b.obshold)
	}},
	{"shards", "", func(b bench) (result, error) {
		return b.RunShards(servingUsers, servingWorkers, shardPasses, shardCounts, diskLatency)
	}},
	{"drift", "", func(b bench) (result, error) { return b.RunDrift(b.points, uint64(b.seed)) }},
	{"ablations", "", func(b bench) (result, error) { return b.RunAblations() }},
	{"baselines", "", func(b bench) (result, error) { return b.RunBaselines(b.points) }},
	{"compression", "", func(b bench) (result, error) { return b.RunCompression() }},
	{"feedback", "", func(b bench) (result, error) { return b.RunFeedback(0, b.points) }},
	{"docsorted", "", func(b bench) (result, error) { return b.RunDocSorted(b.points) }},
	{"weblegend", "", func(b bench) (result, error) { return b.RunWebLegend(b.topics) }},
	{"boolean", "", func(b bench) (result, error) { return b.RunBoolean(b.topics) }},
	{"dualbuf", "", func(b bench) (result, error) { return b.RunDualBuf() }},
	{"summary", "", func(b bench) (result, error) { return b.RunSummary(refine.AddOnly, b.topics, 6) }},
	{"effect", "", func(b bench) (result, error) { return b.RunEffectiveness(orDefault(b.topics, effectTopics), 4) }},
	{"ranksafe", "", func(b bench) (result, error) { return b.RunRankSafe(b.points) }},
	{"ingest", "", func(b bench) (result, error) { return b.RunIngest(servingUsers, ingestPerPhase) }},
}

// orDefault is n, or def when n is 0 (the -topics "unrestricted" value
// of experiments too costly to run over every topic).
func orDefault(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// expNames lists the valid -exp names: all, every registry name, then
// each alias with the entries it runs.
func expNames() string {
	names := []string{"all"}
	var aliases []string
	members := map[string][]string{}
	for _, x := range registry {
		names = append(names, x.name)
		if x.alias == "" {
			continue
		}
		if members[x.alias] == nil {
			aliases = append(aliases, x.alias)
		}
		members[x.alias] = append(members[x.alias], x.name)
	}
	for _, a := range aliases {
		names = append(names, a+" ("+strings.Join(members[a], "+")+")")
	}
	return strings.Join(names, " ")
}

// selectExps resolves an -exp list to registry entries, in registry
// order. An unknown name is an error.
func selectExps(list string) ([]experiment, error) {
	known := map[string]bool{"all": true}
	for _, x := range registry {
		known[x.name], known[x.alias] = true, true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s", name, expNames())
		}
		want[name] = true
	}
	var out []experiment
	for _, x := range registry {
		if want["all"] || want[x.name] || want[x.alias] {
			out = append(out, x)
		}
	}
	return out, nil
}

// writeJSON is irbench's one JSON writer: v into the file path,
// indented by two spaces like the committed BENCH_*.json files.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("irbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run parses args, builds the environment and runs the selected
// experiments, printing to w (or to -out).
func run(args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var b bench
	scale := fs.String("scale", "default", "collection scale: tiny, default, or paper")
	fs.Int64Var(&b.seed, "seed", 1998, "generator seed, also seeding the fault schedules of faults and drift")
	exps := fs.String("exp", "all", "comma-separated experiments to run: "+expNames())
	fs.IntVar(&b.topics, "topics", 0, "topics for the per-topic experiments; at 0, or above the topic count, summary runs all, weblegend 8, boolean 20 and effect 20 (all when above)")
	fs.IntVar(&b.points, "points", 10, "buffer-size sweep points")
	outPath := fs.String("out", "", "write output to file instead of stdout")
	cadd := fs.Float64("cadd", 0, "override c_add filtering constant (0 = collection-tuned default)")
	cins := fs.Float64("cins", 0, "override c_ins filtering constant (0 = collection-tuned default)")
	fs.StringVar(&b.obsaddr, "obsaddr", "127.0.0.1:0", "listen address of the obs experiment's metrics endpoint")
	fs.DurationVar(&b.obshold, "obshold", 0, "keep the obs experiment's endpoint up this long after the run")
	benchjson := fs.String("benchjson", "", "also write the result of the one experiment -exp names to this file as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}

	selected, err := selectExps(*exps)
	if err != nil {
		return err
	}
	if *benchjson != "" && len(selected) != 1 {
		return fmt.Errorf("-benchjson needs -exp to name exactly one experiment, not %d", len(selected))
	}
	config, ok := map[string]func(int64) corpus.Config{
		"tiny": corpus.TinyConfig, "default": corpus.DefaultConfig, "paper": corpus.PaperConfig,
	}[*scale]
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg := config(b.seed)

	if *outPath != "" {
		f, ferr := os.Create(*outPath)
		if ferr != nil {
			return ferr
		}
		defer func() { // a failed close of -out becomes run's error
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	start := time.Now()
	fmt.Fprintf(w, "irbench: scale=%s seed=%d (N=%d docs, V=%d terms, page=%d entries)\n",
		*scale, b.seed, cfg.NumDocs, cfg.VocabSize, cfg.PageSize)
	if b.Env, err = experiments.NewEnv(cfg); err != nil {
		return err
	}
	if *cadd > 0 || *cins > 0 {
		p := b.Params()
		if *cadd > 0 {
			p.CAdd = *cadd
		}
		if *cins > 0 {
			p.CIns = *cins
		}
		b.SetParams(p)
		fmt.Fprintf(w, "filtering constants overridden: c_add=%g c_ins=%g\n", p.CAdd, p.CIns)
	}
	fmt.Fprintf(w, "environment built in %v: %d inverted-list pages, conversion table %d bytes\n\n",
		time.Since(start).Round(time.Millisecond), b.Idx.NumPagesTotal, b.Conv.SizeBytes())

	for _, x := range selected {
		t0 := time.Now()
		res, err := x.run(b)
		if err != nil {
			return fmt.Errorf("%s: %w", x.name, err)
		}
		res.Format(w)
		if *benchjson != "" {
			if err := writeJSON(*benchjson, res); err != nil {
				return fmt.Errorf("%s: %w", x.name, err)
			}
			fmt.Fprintf(w, "[json written to %s]\n", *benchjson)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n", x.name, time.Since(t0).Round(time.Millisecond))
		fmt.Fprintln(w, "\n"+strings.Repeat("-", 78)+"\n")
	}
	fmt.Fprintf(w, "total time %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
