package ws

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForRangeCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 4096} {
		var hits [4096]int32
		ForRange(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i := 0; i < n; i++ {
			if hits[i] != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, hits[i])
			}
		}
	}
}

func TestForRangeInlineBelowThreshold(t *testing.T) {
	calls := 0
	ForRange(100, 1000, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline call got [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls=%d, want 1", calls)
	}
}

func TestWorkspacePoolRoundTrip(t *testing.T) {
	w := Get()
	w.Visited.Reset(64)
	w.Visited.Add(3)
	w.Nodes = append(w.Nodes[:0], 1, 2, 3)
	w.Release()
	// A released workspace must be reusable whatever its prior state.
	w2 := Get()
	defer w2.Release()
	w2.Visited.Reset(8)
	if w2.Visited.Has(3) {
		t.Fatal("Reset did not clear membership across pool reuse")
	}
}

// A released workspace must still be there, arrays and all, after the
// collector has run: a sync.Pool would have dropped it at the second cycle.
func TestReleasedWorkspaceOutlivesCollections(t *testing.T) {
	w := Get()
	w.Nodes = append(w.Nodes[:0], 1, 2, 3)
	w.Release()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	var held []*Workspace
	defer func() {
		for _, h := range held {
			h.Release()
		}
	}()
	for i := 0; i <= cap(free); i++ {
		h := Get()
		held = append(held, h)
		if h == w {
			if cap(w.Nodes) < 3 {
				t.Fatal("released workspace came back without its arrays")
			}
			return
		}
	}
	t.Fatal("released workspace was not kept")
}

// Releases beyond the free list's capacity must not block.
func TestReleaseBeyondCapacity(t *testing.T) {
	held := make([]*Workspace, cap(free)+2)
	for i := range held {
		held[i] = Get()
	}
	for _, h := range held {
		h.Release()
	}
	if len(free) != cap(free) {
		t.Fatalf("free list holds %d, want %d", len(free), cap(free))
	}
}

func TestI32(t *testing.T) {
	buf := I32(nil, 10)
	if len(buf) != 10 {
		t.Fatalf("len=%d, want 10", len(buf))
	}
	buf[5] = 7
	same := I32(buf, 4)
	if len(same) != 4 || &same[0] != &buf[0] {
		t.Fatal("I32 should reuse a sufficient backing array")
	}
	grown := I32(buf, 1000)
	if len(grown) != 1000 {
		t.Fatalf("len=%d, want 1000", len(grown))
	}
}
