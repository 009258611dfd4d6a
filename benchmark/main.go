// Command benchmark is the repository's benchmark: four
// refinement-serving workloads over one seeded fixture, measured end
// to end through bufir.Open and, in a separate traced run, layer by
// layer from outside. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"

	"bufir"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of them, untraced then traced)")
		seed     = flag.Int64("seed", 1998, "seed of the user assignment and the ingested documents")
		seconds  = flag.Float64("seconds", 10, "how long a run measures")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, 1: per-layer metrics from the traced run (default: both)")
		out      = flag.String("out", "", "append every result line to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.jsonl change.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	// The load is sized for two cores: two closed-loop clients, two
	// engine workers.
	runtime.GOMAXPROCS(numClients)

	var todo []workloadSpec
	if *workload == "" {
		todo = workloads
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		todo = []workloadSpec{w}
	}
	modes := []int{0, 1}
	if *trace == 0 || *trace == 1 {
		modes = []int{*trace}
	}

	// An interrupt cancels the queries in flight, which fails the run;
	// it still unwinds through its deferred clean-up.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := bufir.DefaultCollectionConfig(corpusSeed)
	baseline := runtime.NumGoroutine()
	status := 0
	for _, w := range todo {
		for _, mode := range modes {
			rc := runConfig{w: w, seed: *seed, seconds: *seconds, corpus: cfg}
			run := runEndToEnd
			if mode == 1 {
				run = runTraced
			}
			res, err := run(ctx, rc)
			if err == nil {
				err = ctx.Err() // interrupted: the numbers mean nothing
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if extra := settle(baseline); extra > 0 {
				res.problem("%d goroutines outlived the run", extra)
			}
			report(w, res)
			if *out != "" {
				if err := appendResult(*out, w.Name, *seed, mode, res); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
			}
			if !res.Correct {
				status = 1
			}
		}
	}
	return status
}

// report prints every metric as "<workload> <metric> <value> <unit>",
// the counts beside them, any failed check, and last the result line.
func report(w workloadSpec, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%s %s %.6g %s\n", w.Name, name, m.Value, m.Unit)
	}
	for _, line := range res.info {
		fmt.Printf("%s # %s\n", w.Name, line)
	}
	for _, p := range res.problems {
		fmt.Printf("%s FAILED %s\n", w.Name, p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", line)
}
