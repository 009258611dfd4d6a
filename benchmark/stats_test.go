package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {200, 0.95, 10}, {199, 0.95, 9}, {20, 0.5, 10}, {10, 0.999, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	// The reported tail is the highest percentile with ten samples
	// beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{2, 4}, 1.5, 4.5},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}
