package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every representable value must land in a bucket whose [lower, upper]
	// range contains it, and bucket bounds must tile the axis exactly.
	vals := []uint64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100, 1000, 1e6, 1e9, 1e12, maxTracked - 1, maxTracked, math.MaxUint64}
	for _, v := range vals {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if v < maxTracked {
			if lo, hi := bucketLower(i), BucketUpper(i); v < lo || v > hi {
				t.Fatalf("value %d in bucket %d [%d, %d]", v, i, lo, hi)
			}
		} else if i != NumBuckets-1 {
			t.Fatalf("value %d should overflow, got bucket %d", v, i)
		}
	}
	for i := 1; i < NumBuckets-1; i++ {
		if bucketLower(i) != BucketUpper(i-1)+1 {
			t.Fatalf("bucket %d lower %d does not abut bucket %d upper %d",
				i, bucketLower(i), i-1, BucketUpper(i-1))
		}
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := int64(0); v < subCount; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	for i := 0; i < subCount; i++ {
		if s.Buckets[i] != 1 {
			t.Fatalf("small value %d not in its unit bucket: %v", i, s.Buckets[:subCount])
		}
	}
	if s.Count != subCount || s.Sum != 0+1+2+3 {
		t.Fatalf("count %d sum %d", s.Count, s.Sum)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Sum != 0 {
		t.Fatalf("negative observation not clamped to 0: %+v", s)
	}
}

// TestQuantileAccuracy checks interpolated quantiles against a sorted
// reference on distributions shaped like real latency populations. The
// layout guarantees ≤25% bucket width, so interpolated estimates must stay
// within 15% relative error of the true order statistic.
func TestQuantileAccuracy(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) int64{
		"uniform":   func(r *rand.Rand) int64 { return r.Int63n(1_000_000) },
		"exp":       func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 200_000) },
		"lognormal": func(r *rand.Rand) int64 { return int64(math.Exp(r.NormFloat64()*1.5 + 11)) },
		"bimodal": func(r *rand.Rand) int64 {
			if r.Intn(5) == 0 {
				return 5_000_000 + r.Int63n(1_000_000) // slow mode: cache misses
			}
			return 50_000 + r.Int63n(20_000) // fast mode: cache hits
		},
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999}
	for name, gen := range distributions {
		r := rand.New(rand.NewSource(42))
		var h Histogram
		ref := make([]int64, 0, 100_000)
		for i := 0; i < 100_000; i++ {
			v := gen(r)
			h.Observe(v)
			ref = append(ref, v)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		s := h.Snapshot()
		for _, q := range quantiles {
			got := s.Quantile(q)
			idx := int(q*float64(len(ref))) - 1
			if idx < 0 {
				idx = 0
			}
			want := float64(ref[idx])
			relErr := math.Abs(got-want) / want
			if relErr > 0.15 {
				t.Errorf("%s p%g: histogram %.0f vs reference %.0f (rel err %.3f)",
					name, q*100, got, want, relErr)
			}
		}
		if s.Count != 100_000 {
			t.Fatalf("%s: count %d", name, s.Count)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Snapshot
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty snapshot should report zeros")
	}
	var h Histogram
	h.Observe(math.MaxInt64) // overflow bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != float64(bucketLower(NumBuckets-1)) {
		t.Fatalf("overflow quantile %g, want saturation at %d", got, bucketLower(NumBuckets-1))
	}
	if s.Max() != math.MaxUint64 {
		t.Fatalf("overflow max %d", s.Max())
	}
}

// TestConcurrentRecordSnapshot is the race-detector workout: writers record
// while readers snapshot and quantile. Run under -race it proves the
// lock-free claim; the final barrier checks no observation was lost.
func TestConcurrentRecordSnapshot(t *testing.T) {
	var h Histogram
	const writers, perWriter = 8, 20_000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ { // concurrent snapshotters
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := h.Snapshot()
					_ = s.Quantile(0.99)
					_ = s.Summary()
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(seed int64) {
			defer ww.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.Observe(r.Int63n(1_000_000))
			}
		}(int64(w))
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("lost observations: count %d, want %d", s.Count, writers*perWriter)
	}
	var sum uint64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket total %d != count %d", sum, s.Count)
	}
}

// TestObserveAllocs is the 0 allocs/op guard on the record path — the
// property that lets a histogram sit on every stage of every request.
func TestObserveAllocs(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123_456) }); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() { h.ObserveSince(start) }); n != 0 {
		t.Fatalf("ObserveSince allocates %v/op, want 0", n)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*6364136223846793005 + 1442695040888963407 // LCG walk across buckets
			if v < 0 {
				v = -v
			}
		}
	})
}

func TestRing(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Last(10); len(got) != 0 {
		t.Fatalf("empty ring returned %v", got)
	}
	for i := 1; i <= 6; i++ {
		r.Add(i)
	}
	if r.Len() != 4 || r.Seq() != 6 {
		t.Fatalf("len %d seq %d", r.Len(), r.Seq())
	}
	if got := r.Last(2); got[0] != 6 || got[1] != 5 {
		t.Fatalf("Last(2) = %v, want [6 5]", got)
	}
	got := r.Last(0) // everything, newest first
	want := []int{6, 5, 4, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Last(0) = %v, want %v", got, want)
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing[uint64](64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				r.Add(uint64(i))
				if i%64 == 0 {
					_ = r.Last(8)
				}
			}
		}()
	}
	wg.Wait()
	if r.Seq() != 4*5000 {
		t.Fatalf("seq %d", r.Seq())
	}
}
