package obs

import (
	"sync"
	"testing"
)

// TestHistogramStripesExact records known values from 8 goroutines, half of
// them into the P's stripe and half into an explicit one, and requires the
// snapshot's count, sum and every bucket to be exact.
func TestHistogramStripesExact(t *testing.T) {
	const writers, perWriter = 8, 10_000
	value := func(g, i int) int64 { return int64(i*i+g*7919) % 5_000_000 }
	var want Snapshot
	for g := 0; g < writers; g++ {
		for i := 0; i < perWriter; i++ {
			v := uint64(value(g, i))
			want.Buckets[bucketIndex(v)]++
			want.Sum += v
			want.Count++
		}
	}
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if i%2 == 0 {
					h.Observe(value(g, i))
				} else {
					h.ObserveAt(Stripe(g), value(g, i))
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot(); got != want {
		t.Fatalf("snapshot count %d sum %d, want %d and %d (or a bucket differs)", got.Count, got.Sum, want.Count, want.Sum)
	}
}

type ended struct{ writer, endNS int64 }

// TestRingNewestAcrossStripes has one writer per stripe add entries with
// known, globally distinct end times while readers call Last, and requires
// Last(n) to return exactly the n latest ends, newest first, and Seq to
// count every add.
func TestRingNewestAcrossStripes(t *testing.T) {
	const size, perWriter = 64, 2_000
	r := NewStripedRing(size, func(e *ended) int64 { return e.endNS })
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Last(8)
			}
		}
	}()
	for g := 0; g < Stripes; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				r.AddAt(Stripe(g), ended{int64(g), int64(i*Stripes + g)})
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got, want := r.Seq(), uint64(Stripes*perWriter); got != want {
		t.Fatalf("Seq = %d, want %d", got, want)
	}
	if r.Len() != size {
		t.Fatalf("Len = %d, want %d", r.Len(), size)
	}
	newest := int64(Stripes*perWriter - 1)
	for _, tc := range []struct{ n, want int }{{1, 1}, {10, 10}, {size, size}, {0, size}, {10 * size, size}} {
		got := r.Last(tc.n)
		if len(got) != tc.want {
			t.Fatalf("Last(%d) returned %d entries, want %d", tc.n, len(got), tc.want)
		}
		for i, e := range got {
			if e.endNS != newest-int64(i) || e.writer != e.endNS%Stripes {
				t.Fatalf("Last(%d)[%d] = %+v, want end %d", tc.n, i, e, newest-int64(i))
			}
		}
	}
}
