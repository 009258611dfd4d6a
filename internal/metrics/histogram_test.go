package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketLayout: every value maps into a bucket whose bounds
// contain it, indices are monotone in the value, and relative bucket
// width stays within the designed 25% above the exact range.
func TestBucketLayout(t *testing.T) {
	values := []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1 << 40, 1<<62 + 12345}
	for _, v := range values {
		i := bucketOf(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, i, lo, hi)
		}
	}
	prev := -1
	for v := int64(0); v < 4096; v++ {
		i := bucketOf(v)
		if i < prev {
			t.Fatalf("bucket index went backwards at value %d: %d after %d", v, i, prev)
		}
		prev = i
	}
	// Width check: for v >= 8 the bucket containing v is at most v/4 wide.
	for _, v := range []int64{64, 1000, 1 << 30} {
		lo, hi := bucketBounds(bucketOf(v))
		if hi-lo > v/4+1 {
			t.Errorf("bucket of %d is [%d,%d): wider than 25%%", v, lo, hi)
		}
	}
	// The top bucket must still be in range.
	if i := bucketOf(1<<63 - 1); i >= NumHistogramBuckets {
		t.Fatalf("max value bucket %d out of range (%d buckets)", i, NumHistogramBuckets)
	}
}

// TestHistogramQuantiles: quantiles of a histogram fed a known
// distribution land within one bucket width of the exact order
// statistics.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 10000)
	for i := range samples {
		// Log-uniform-ish latencies between 1µs and 100ms.
		v := int64(1000 * (1 + rng.ExpFloat64()*5000))
		samples[i] = v
		h.Observe(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(samples))
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := samples[int(q*float64(len(samples)-1))]
		got := int64(s.Quantile(q))
		// The bucket containing the exact value bounds the error.
		lo, hi := bucketBounds(bucketOf(exact))
		if got < lo || got > hi {
			t.Errorf("q=%g: got %d, exact %d, bucket [%d,%d)", q, got, exact, lo, hi)
		}
	}
	wantMean := int64(0)
	for _, v := range samples {
		wantMean += v
	}
	wantMean /= int64(len(samples))
	if got := int64(s.Mean()); got != wantMean {
		t.Errorf("Mean = %d, want %d (sum is tracked exactly)", got, wantMean)
	}
}

// TestHistogramMerge: merging two snapshots equals one histogram fed
// both streams — the fixed-bucket mergeability contract.
func TestHistogramMerge(t *testing.T) {
	var a, b, both Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := time.Duration(rng.Int63n(1 << 30))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	sa, sb, sw := a.Snapshot(), b.Snapshot(), both.Snapshot()
	sa.Merge(sb)
	if sa != sw {
		t.Fatal("merged snapshot differs from jointly-observed histogram")
	}
}

// TestHistogramConcurrent: concurrent Observe from many goroutines
// loses nothing (run under -race in CI).
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(1 << 40)))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*per)
	}
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
}

// TestQuantileEdgeCases: empty histograms and out-of-range q values
// are total.
func TestQuantileEdgeCases(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("empty snapshot should report zero quantiles and mean")
	}
	var h Histogram
	h.Observe(1000)
	s = h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		lo, hi := bucketBounds(bucketOf(1000))
		if int64(got) < lo || int64(got) > hi {
			t.Errorf("Quantile(%g) = %v outside the single observation's bucket", q, got)
		}
	}
}

// TestNonEmptyBuckets: the sparse iteration visits exactly the
// occupied buckets, in ascending bound order.
func TestNonEmptyBuckets(t *testing.T) {
	var h Histogram
	h.Observe(5)
	h.Observe(5)
	h.Observe(1 << 20)
	s := h.Snapshot()
	var uppers []int64
	var total int64
	s.NonEmptyBuckets(func(hi, n int64) {
		uppers = append(uppers, hi)
		total += n
	})
	if len(uppers) != 2 || total != 3 {
		t.Fatalf("got %d buckets with %d observations, want 2 buckets / 3 observations", len(uppers), total)
	}
	if uppers[0] >= uppers[1] {
		t.Error("bucket upper bounds not ascending")
	}
}
