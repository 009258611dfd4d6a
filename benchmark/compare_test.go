package main

import "testing"

func TestJudgeMetric(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name    string
		m       metricSpec
		p, c    []float64
		verdict string
	}{
		{"unchanged", lower, steady, steady, verdictOK},
		{"slower within the bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"slower beyond the bound", lower, steady, []float64{112, 113, 111, 112, 112}, verdictRegressed},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"fewer per second beyond the bound", higher, steady, []float64{88, 89, 87, 88, 88}, verdictRegressed},
		{"more per second", higher, steady, []float64{120, 121, 119, 120, 120}, verdictOK},
		{"parent spreads wider than the bound", lower, []float64{80, 100, 120, 90, 110}, steady, verdictUnresolved},
		{"change spreads wider than the bound", lower, steady, []float64{80, 100, 120, 90, 110}, verdictUnresolved},
	} {
		if _, got := judgeMetric(c.m, c.p, c.c); got != c.verdict {
			t.Errorf("%s: %s, want %s", c.name, got, c.verdict)
		}
	}
	if worse, _ := judgeMetric(higher, []float64{100}, []float64{90}); worse < 0.0999 || worse > 0.1001 {
		t.Errorf("worse by %g, want 0.1", worse)
	}
}
