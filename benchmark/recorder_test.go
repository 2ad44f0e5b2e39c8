package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestRecorderQuantiles holds the histogram's interpolated quantiles and its
// mean against a sorted reference over four decades of durations.
func TestRecorderQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := newRecorder(), newRecorder()
	var ref []float64
	for i := 0; i < 200_000; i++ {
		ns := int64(math.Exp(rng.NormFloat64()*2 + 11)) // median ≈ 60 µs, heavy tail
		if i%2 == 0 {
			a.add(ns)
		} else {
			b.add(ns)
		}
		ref = append(ref, float64(ns))
	}
	a.merge(b)
	sort.Float64s(ref)
	if a.count() != uint64(len(ref)) {
		t.Fatalf("count %d, want %d", a.count(), len(ref))
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := ref[int(q*float64(len(ref)-1))]
		if got := a.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%v = %v, sorted reference %v", q, got, want)
		}
	}
	sum := 0.0
	for _, v := range ref {
		sum += v
	}
	if got, want := a.mean(), sum/float64(len(ref)); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

// TestRecorderSmallValues: durations below the first log bucket are exact.
func TestRecorderSmallValues(t *testing.T) {
	r := newRecorder()
	for ns := int64(0); ns < 100; ns++ {
		r.add(ns)
	}
	if got := r.quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("median of 0..99 = %v", got)
	}
	if newRecorder().quantile(0.5) != 0 {
		t.Error("an empty recorder must report 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}
