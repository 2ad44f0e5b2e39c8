package main

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/kcore"
	"repro/internal/mutate"
)

// TestMutationsAreStationaryAndOrderIndependent replays one generated list
// in two interleavings — as issued, and as two clients would split it, odd
// ops first — with no delta rejected, and holds the final graph's edge count
// and coreness to within 2% of the initial graph's.
func TestMutationsAreStationaryAndOrderIndependent(t *testing.T) {
	ds := datasetFor(t, "twitch")
	gen := newMutGen(ds, 1)
	const n = 1500
	issued := make([]mutate.Delta, n)
	for i := range issued {
		_, issued[i] = gen.next()
	}
	var split []mutate.Delta
	for parity := 1; parity >= 0; parity-- {
		for i := parity; i < n; i += 2 {
			split = append(split, issued[i])
		}
	}
	max0, avg0 := kcore.MaxCoreness(ds.Graph)
	edges0 := ds.Graph.NumEdges()

	var finalEdges []int
	for name, order := range map[string][]mutate.Delta{"issued": issued, "split": split} {
		eng, err := engine.New(ds.Graph, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		const perBatch = 25
		for lo := 0; lo < n; lo += perBatch {
			var groups [][]mutate.Delta
			for _, d := range order[lo:min(lo+perBatch, n)] {
				groups = append(groups, []mutate.Delta{d})
			}
			_, outs, err := eng.ApplyGroups(groups)
			if err != nil {
				t.Fatalf("%s order, batch at %d: %v", name, lo, err)
			}
			for i, o := range outs {
				if !o.Applied {
					t.Fatalf("%s order: delta %d rejected: %v", name, lo+i, o.Err)
				}
			}
		}
		g := eng.Graph()
		maxC, avg := kcore.MaxCoreness(g)
		if drift := math.Abs(float64(g.NumEdges()-edges0)) / float64(edges0); drift > 0.02 {
			t.Errorf("%s order: %d edges, started with %d", name, g.NumEdges(), edges0)
		}
		if drift := math.Abs(float64(maxC-max0)) / float64(max0); drift > 0.02 {
			t.Errorf("%s order: max coreness %d, started at %d", name, maxC, max0)
		}
		if drift := math.Abs(avg-avg0) / avg0; drift > 0.02 {
			t.Errorf("%s order: mean coreness %.3f, started at %.3f", name, avg, avg0)
		}
		finalEdges = append(finalEdges, g.NumEdges())
	}
	if finalEdges[0] != finalEdges[1] {
		t.Errorf("the two interleavings ended with %d and %d edges", finalEdges[0], finalEdges[1])
	}
}
