package sampling

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// refHeap replays the historical container/heap frontier so the hand-rolled
// heap can be proven pop-order identical.
type refEntry struct {
	v graph.NodeID
	d float64
}
type refHeap []refEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// TestHeapMatchesContainerHeap drives both heaps with the same random
// push/pop schedule and demands identical pop order — the property that
// keeps BuildGqInto's output stable across the substrate rewrite.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var ours []ws.NodeDist
	ref := &refHeap{}
	for step := 0; step < 5000; step++ {
		if len(ours) == 0 || rng.Intn(3) != 0 {
			v, d := graph.NodeID(rng.Intn(1000)), rng.Float64()
			ours = heapPush(ours, ws.NodeDist{V: v, D: d})
			heap.Push(ref, refEntry{v, d})
		} else {
			var got ws.NodeDist
			ours, got = heapPop(ours)
			want := heap.Pop(ref).(refEntry)
			if got.V != want.v || got.D != want.d {
				t.Fatalf("step %d: pop (%d,%v), want (%d,%v)", step, got.V, got.D, want.v, want.d)
			}
		}
	}
}

func wsTestGraph(t *testing.T) (*graph.Graph, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	n := 300
	b := graph.NewBuilder(n, 0)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.MustBuild()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = rng.Float64()
	}
	return g, dist
}

// TestProbabilitiesIntoAppends: ProbabilitiesInto must append after existing
// elements and normalize only its own segment.
func TestProbabilitiesIntoAppends(t *testing.T) {
	g, dist := wsTestGraph(t)
	gq := BuildGqInto(nil, g, 0, dist, 50, testWS(t))
	prefix := []float64{42}
	out := ProbabilitiesInto(prefix, gq, dist)
	if out[0] != 42 || len(out) != 51 {
		t.Fatalf("prefix clobbered: %v len %d", out[0], len(out))
	}
	sum := 0.0
	for _, p := range out[1:] {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum %v, want 1", sum)
	}
}
