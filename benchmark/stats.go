package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least p·n of the
// sample at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// samplesBeyond counts the samples strictly above the p-quantile's
// rank: what is left in the tail to support it.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailLadder is the ladder of tail percentiles a report may name.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported
// percentile.
const minBeyond = 10

// supportedTail returns the highest percentile of the ladder that n
// samples support with at least minBeyond samples beyond it, or 0
// when not even the median qualifies.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// sortedCopy returns xs in ascending order, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the two middle values for
// an even count), NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4)), which
// the acceptance rule for spreads uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / m)
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
