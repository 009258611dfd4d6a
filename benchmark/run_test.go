package main

import (
	"context"
	"strings"
	"testing"

	"bufir"
)

func tinyRun(t *testing.T, name string) runConfig {
	return runConfig{w: tinyWorkload(t, name), seed: 7, seconds: 0.3, corpus: tinyCorpus()}
}

// Every workload runs end to end on the tiny collection with every
// check green and every declared metric reported, none of them zero.
func TestEndToEndOnTinyCollection(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runEndToEnd(context.Background(), tinyRun(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.problems)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v (reported: %v)", m.Name, v, ok)
				}
			}
			if w.algo == bufir.Maxscore && res.Metrics["overlap_at_20"].Value != 1 {
				t.Errorf("rank-safe overlap %g, want exactly 1", res.Metrics["overlap_at_20"].Value)
			}
		})
	}
}

// A wrong answer fails the run: with one oracle answer corrupted the
// rank-safe workload reports failed operations and is not correct.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	rc := tinyRun(t, "refine-safe")
	rc.tamper = func(o *oracle) {
		top := append([]bufir.ScoredDoc(nil), o.top[3]...)
		top[0].Score *= 1.0000001
		o.top[3] = top
	}
	res, err := runEndToEnd(context.Background(), rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("correct=%v failed=%d with a corrupted oracle", res.Correct, res.Failed)
	}
	if len(res.problems) == 0 || !strings.Contains(res.problems[0], "differs from the exhaustive oracle") {
		t.Errorf("problems: %v", res.problems)
	}
}

// The traced pass is the shipped program only if it does the same
// work: on every workload its pages read and entries processed equal
// those of the serial pass through the public API, the store seam
// delivered exactly the pages the answers report, no frame stays
// pinned, and the shares add up.
func TestTracedEqualsUntracedCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runTraced(context.Background(), tinyRun(t, w.Name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, res.problems)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(perLayer))
			}
			sum := 0.0
			for name, v := range res.Metrics {
				if strings.HasPrefix(name, "share.") {
					sum += v.Value
				}
			}
			if sum < 99.999 || sum > 100.001 {
				t.Errorf("shares add up to %g", sum)
			}
			// Layers off the workload's path report 0.
			for prefix, on := range map[string]bool{
				"router.":   w.shards > 1,
				"evalsafe.": w.algo == bufir.Maxscore,
				"livedex.":  w.live,
			} {
				for name, v := range res.Metrics {
					if strings.HasPrefix(name, prefix) && (v.Value != 0) != on {
						t.Errorf("%s = %g on %s", name, v.Value, w.Name)
					}
				}
			}
		})
	}
}
