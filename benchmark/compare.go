package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultLine is one run as -out appends it: the result line plus what
// was run.
type resultLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	runResult
}

// appendResult appends one run to the result file at path.
func appendResult(path, workload string, seed int64, mode int, res *runResult) error {
	line, err := json.Marshal(resultLine{Workload: workload, Seed: seed, Trace: mode, runResult: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readResults loads the untraced runs of a result file, grouped by
// workload and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if line.Trace != 0 {
			continue
		}
		if !line.Correct {
			return nil, fmt.Errorf("%s:%d: %s seed %d failed its checks; it cannot be compared", path, n, line.Workload, line.Seed)
		}
		if out[line.Workload] == nil {
			out[line.Workload] = map[string][]float64{}
		}
		for name, m := range line.Metrics {
			out[line.Workload][name] = append(out[line.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judgeMetric compares the change's runs of one metric with the
// parent's. worse is the share of the parent's median by which the
// change's median is worse (negative when better). A metric whose
// runs spread wider than its bound, on either side, cannot be told
// apart from noise and is unresolved, never unchanged.
func judgeMetric(m metricSpec, parent, change []float64) (worse float64, verdict string) {
	mp, mc := median(parent), median(change)
	worse = (mc - mp) / mp
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(parent) > m.Bound || spread(change) > m.Bound:
		verdict = verdictUnresolved
	case worse > m.Bound:
		verdict = verdictRegressed
	default:
		verdict = verdictOK
	}
	return worse, verdict
}

// compareFiles prints one row per workload and end-to-end metric and
// returns the exit status: 1 when any row regressed.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareResults(w, parent, change)
}

func compareResults(w io.Writer, parent, change map[string]map[string][]float64) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent\tchange\tworse by\tbound\tspread p/c\truns p/c\tverdict")
	status := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			p, c := parent[wl.Name][m.Name], change[wl.Name][m.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			worse, verdict := judgeMetric(m, p, c)
			if verdict == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%.2f%%/%.2f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, median(p), median(c), 100*worse, 100*m.Bound,
				100*spread(p), 100*spread(c), len(p), len(c), verdict)
		}
	}
	tw.Flush()
	return status
}
