package metrics

// The serving stack's observability layer: lock-free latency
// histograms, point-in-time snapshots of the engine and buffer gauges,
// and the registration hook behind the optional HTTP endpoint.
//
// The package never imports net/http, so the core serving layers
// (engine, buffer, eval) can record into it without pulling an HTTP
// server, or net/http/pprof's DefaultServeMux side effects, into every
// binary that links the library. The endpoint itself lives in
// bufir/obshttp and is enabled only by an explicit import of it;
// `make depgraph` enforces the split.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values (nanoseconds) are binned into
// log-spaced buckets with four linear sub-buckets per power of two —
// the HDR-style exponent+mantissa scheme — so relative bucket width is
// at most 25% across the whole int64 range while the bucket count
// stays a small fixed constant. Values 0..7 get exact unit buckets.
//
// Fixed buckets make snapshots mergeable by plain addition: two
// histograms recorded on different engines (or different time windows)
// combine into one distribution without resampling, which is what lets
// per-shard or per-engine distributions roll up into fleet totals.
const (
	histSubBits = 2
	histSubs    = 1 << histSubBits // linear sub-buckets per octave
	// NumHistogramBuckets covers the full non-negative int64 range:
	// 8 exact unit buckets for 0..7, then 4 sub-buckets per octave up
	// to the top exponent (indices 8..15 are unused padding from the
	// direct exponent×subs indexing — a few wasted zeros buy a
	// branch-free mapping).
	NumHistogramBuckets = 64 * histSubs
)

// bucketOf maps a nanosecond value to its bucket index. Negative
// values clamp to bucket 0 (they can only arise from clock weirdness).
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 2*histSubs {
		return int(u)
	}
	e := bits.Len64(u) - 1 // e >= 3
	sub := (u >> (uint(e) - histSubBits)) & (histSubs - 1)
	return histSubs + e*histSubs + int(sub)
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < 2*histSubs {
		return int64(i), int64(i) + 1
	}
	e := i/histSubs - 1
	sub := i % histSubs
	lo = int64(histSubs+sub) << (uint(e) - histSubBits)
	width := int64(1) << (uint(e) - histSubBits)
	return lo, lo + width
}

// Histogram is a lock-free fixed-bucket latency histogram. Observe is
// a single atomic add per bucket plus two for count/sum, so workers on
// every goroutine record without coordination; Snapshot copies the
// buckets and is exact at quiescence, which is when experiments and
// tests read it (mid-flight snapshots are racy only by the odd
// in-progress observation, never torn within a bucket).
//
// The zero value is ready to use.
type Histogram struct {
	buckets [NumHistogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketOf(int64(d))].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Snapshots
// with the same (fixed) bucket layout merge by addition.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Buckets [NumHistogramBuckets]int64
}

// Merge adds other's observations into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Mean returns the mean observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded
// distribution, linearly interpolated within the containing bucket.
// Empty histograms return 0.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation in the
	// sorted sequence.
	rank := int64(q*float64(s.Count-1)) + 1
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			// Interpolate the target's position within the bucket.
			frac := float64(rank-cum-1) / float64(n)
			return time.Duration(lo + int64(frac*float64(hi-lo)))
		}
		cum += n
	}
	// Unreachable when Count equals the bucket sum; be safe anyway.
	lo, _ := bucketBounds(NumHistogramBuckets - 1)
	return time.Duration(lo)
}

// P50 is Quantile(0.50).
func (s HistogramSnapshot) P50() time.Duration { return s.Quantile(0.50) }

// P95 is Quantile(0.95).
func (s HistogramSnapshot) P95() time.Duration { return s.Quantile(0.95) }

// P99 is Quantile(0.99).
func (s HistogramSnapshot) P99() time.Duration { return s.Quantile(0.99) }

// NonEmptyBuckets calls f for every bucket holding at least one
// observation, in ascending value order, with the bucket's upper bound
// (exclusive, in nanoseconds) and its count. Exporters use this to
// emit sparse cumulative buckets instead of all NumHistogramBuckets.
func (s HistogramSnapshot) NonEmptyBuckets(f func(upperNanos int64, count int64)) {
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		_, hi := bucketBounds(i)
		f(hi, n)
	}
}
