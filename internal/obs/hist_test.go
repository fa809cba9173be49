package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBucketOfMonotone(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and bucket
	// indices must be monotone in the value.
	vals := []uint64{0, 1, 7, 8, 9, 15, 16, 100, 1023, 1024, 1 << 20, 1<<63 + 17, ^uint64(0)}
	prev := -1
	for _, v := range vals {
		b := bucketOf(v)
		lo, hi := bucketBounds(b)
		if v < lo || (hi > lo && v >= hi) {
			t.Fatalf("value %d in bucket %d with bounds [%d,%d)", v, b, lo, hi)
		}
		if b < prev {
			t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
		}
		if b < 0 || b >= nBuckets {
			t.Fatalf("bucket %d out of range for %d", b, v)
		}
		prev = b
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	// Uniform values 1..100000: quantiles must land within the bucketing
	// scheme's relative error bound (1/2^subBits = 12.5%, plus the
	// interpolation slack within one bucket).
	var h Hist
	const n = 100000
	for v := uint64(1); v <= n; v++ {
		h.Record(v)
	}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.50, 50000}, {0.95, 95000}, {0.99, 99000}, {0.999, 99900},
	} {
		got := h.Quantile(tc.q)
		if rel := (got - tc.want) / tc.want; rel < -0.15 || rel > 0.15 {
			t.Errorf("Quantile(%g) = %.0f, want %.0f ±15%%", tc.q, got, tc.want)
		}
	}
	if h.Count() != n {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != n {
		t.Fatalf("max = %d", h.Max())
	}
	if m := h.Mean(); m < 0.85*(n/2) || m > 1.15*(n/2) {
		t.Fatalf("mean = %.0f", m)
	}
}

func TestHistEmptyAndSingle(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read as all zeros")
	}
	h.Record(42)
	if q := h.Quantile(0.5); q < 40 || q > 48 {
		t.Fatalf("single-value p50 = %.1f", q)
	}
	if h.Quantile(1.0) > float64(h.Max())+8 {
		t.Fatalf("p100 %.1f far above max %d", h.Quantile(1.0), h.Max())
	}
}

func TestHistQuantileClampedToObserved(t *testing.T) {
	// A regression the dense-vs-sparse sweep once showed: every recorded
	// value was 1, yet interpolation inside the [1,2) bucket reported p50=1.5
	// and p99=1.99. Quantiles must be clamped to the observed [min, max]
	// range.
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Record(1)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%g) = %v, want exactly 1", q, got)
		}
	}
	if h.Min() != 1 || h.Max() != 1 {
		t.Fatalf("min/max = %d/%d, want 1/1", h.Min(), h.Max())
	}
	// Mixed values: quantiles stay within [min, max] even at the extremes.
	var m Hist
	m.Record(3)
	m.Record(100)
	if q := m.Quantile(0.999); q > float64(m.Max()) {
		t.Errorf("p99.9 = %v above max %d", q, m.Max())
	}
	if q := m.Quantile(0.001); q < float64(m.Min()) {
		t.Errorf("p0.1 = %v below min %d", q, m.Min())
	}
	// Zero is a legitimate recorded value, distinguishable from "empty".
	var z Hist
	z.Record(0)
	if z.Min() != 0 || z.Count() != 1 || z.Quantile(0.99) != 0 {
		t.Fatalf("all-zero hist: min=%d count=%d p99=%v", z.Min(), z.Count(), z.Quantile(0.99))
	}
	var e Hist
	if e.Min() != 0 {
		t.Fatal("empty hist min must read 0")
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both Hist
	for v := uint64(1); v <= 1000; v++ {
		a.Record(v)
		both.Record(v)
	}
	for v := uint64(1001); v <= 2000; v++ {
		b.Record(v)
		both.Record(v)
	}
	var merged Hist
	merged.Merge(&a)
	merged.Merge(&b)
	if merged.Count() != both.Count() {
		t.Fatalf("merged count %d != %d", merged.Count(), both.Count())
	}
	if merged.Max() != both.Max() {
		t.Fatalf("merged max %d != %d", merged.Max(), both.Max())
	}
	if merged.Min() != both.Min() {
		t.Fatalf("merged min %d != %d", merged.Min(), both.Min())
	}
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		if merged.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merged q%g %.1f != %.1f", q, merged.Quantile(q), both.Quantile(q))
		}
	}
}

func TestShardedHistConcurrent(t *testing.T) {
	// Hammer one shard per goroutine; the snapshot must account for every
	// record exactly. Run under -race this also proves the hot path is
	// data-race free.
	const threads, per = 8, 10000
	s := NewShardedHist(threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid)))
			for i := 0; i < per; i++ {
				s.Record(tid, uint64(rng.Intn(1_000_000)))
			}
		}(tid)
	}
	wg.Wait()
	h := s.Snapshot()
	if h.Count() != threads*per {
		t.Fatalf("snapshot count = %d, want %d", h.Count(), threads*per)
	}
	var sum uint64
	for _, b := range h.Buckets() {
		sum += b.Count
	}
	if sum != threads*per {
		t.Fatalf("bucket counts sum to %d, want %d", sum, threads*per)
	}
}

func TestCounterConcurrent(t *testing.T) {
	const threads, per = 8, 10000
	c := NewCounter(threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(tid, 2)
			}
		}(tid)
	}
	wg.Wait()
	if v := c.Value(); v != threads*per*2 {
		t.Fatalf("counter = %d, want %d", v, threads*per*2)
	}
}

func TestShardedHistDegenerate(t *testing.T) {
	// n <= 0 still yields a usable single shard (tid 0 only).
	s := NewShardedHist(0)
	s.Record(0, 5)
	if s.Snapshot().Count() != 1 {
		t.Fatal("degenerate shard count")
	}
	if NewCounter(-1) == nil {
		t.Fatal("degenerate counter")
	}
}
