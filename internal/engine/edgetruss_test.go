package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
	"repro/internal/truss"
)

// plantedGraph is c dense communities of size each (edge probability 1/2)
// over a sparse background (1/50): many trusses of level 3 to 6.
func plantedGraph(rng *rand.Rand, c, size int) *graph.Graph {
	n := c * size
	return attributed(rng, n, func(u, v int) bool {
		if u/size == v/size {
			return rng.Intn(2) == 0
		}
		return rng.Intn(50) == 0
	})
}

// giantCoreGraph is one dense core of core nodes (edge probability 3/5)
// with a random tree of fringe nodes hanging off it.
func giantCoreGraph(rng *rand.Rand, core, fringe int) *graph.Graph {
	parent := make([]int, core+fringe)
	for v := core; v < core+fringe; v++ {
		parent[v] = rng.Intn(v)
	}
	return attributed(rng, core+fringe, func(u, v int) bool {
		if v < core {
			return rng.Intn(5) < 3
		}
		return parent[v] == u
	})
}

// figure1Graph is the paper's Figure 1: a dense crime-drama core of ten
// movies plus two action movies tied to it.
func figure1Graph(rng *rand.Rand) *graph.Graph {
	edges := map[[2]int]bool{}
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 8}, {1, 2}, {1, 4}, {1, 8},
		{2, 3}, {2, 9}, {3, 9}, {4, 5}, {4, 8}, {5, 6}, {5, 7}, {6, 7},
		{2, 4}, {3, 5}, {6, 9}, {7, 9}, {0, 9}, {1, 3},
		{6, 10}, {7, 10}, {10, 11}, {6, 11}, {7, 11},
	} {
		edges[e] = true
	}
	return attributed(rng, 12, func(u, v int) bool { return edges[[2]int{u, v}] })
}

// attributed builds an n-node graph with edge (u,v), u < v, wherever has
// says so, one or two of four tokens and two numbers per node.
func attributed(rng *rand.Rand, n int, has func(u, v int) bool) *graph.Graph {
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tok%d", rng.Intn(4)), fmt.Sprintf("tok%d", rng.Intn(4)))
		b.SetNumAttrs(graph.NodeID(v), rng.Float64(), rng.Float64())
		for u := 0; u < v; u++ {
			if has(u, v) {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.MustBuild()
}

// randomGroup draws 1–3 deltas against g — add_edge (mostly closing a
// triangle), remove_edge or set_attr — none on an edge in seen, which it
// extends, so every group of one batch stays valid.
func randomGroup(rng *rand.Rand, g *graph.Graph, seen map[mutate.Edge]bool) []mutate.Delta {
	var out []mutate.Delta
	for want := 1 + rng.Intn(3); len(out) < want; {
		d := randomEngineDelta(rng, g)
		switch d.Op {
		case mutate.OpAddNode:
			continue
		case mutate.OpAddEdge, mutate.OpRemoveEdge:
			e := mutate.EdgeOf(d.U, d.V)
			if seen[e] {
				continue
			}
			seen[e] = true
		}
		out = append(out, d)
	}
	return out
}

// decomposedTable is truss.Decompose of g keyed by endpoint pair.
func decomposedTable(g graph.Adjacency) map[mutate.Edge]int32 {
	ix, tr := truss.Decompose(g)
	out := make(map[mutate.Edge]int32, len(tr))
	for e, t := range tr {
		out[mutate.EdgeOf(ix.U[e], ix.V[e])] = t
	}
	return out
}

// sameTable reports the first edge on which two per-edge trussness tables
// differ, or "" when they agree edge for edge.
func sameTable(got, want map[mutate.Edge]int32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d edges, want %d", len(got), len(want))
	}
	for e, t := range want {
		if g, ok := got[e]; !ok || g != t {
			return fmt.Sprintf("edge %v: trussness %d (present %v), want %d", e, g, ok, t)
		}
	}
	return ""
}

// TestCompactedEdgeTrussSeedsTheFirstMutation: on random graphs — planted
// communities, a giant core with a fringe, Figure 1 — given random groups
// of add_edge, remove_edge and set_attr, a compaction (the snapshot the
// engine writes) remounted mapped and on the heap carries per-edge
// trussness from which the remount's first mutation builds exactly
// truss.Decompose of the compacted graph, edge for edge, and exactly the
// table the live engine held when it wrote the snapshot. A snapshot that
// wrote the mount-time column instead fails on the first batch that moved
// a trussness or the edge count.
func TestCompactedEdgeTrussSeedsTheFirstMutation(t *testing.T) {
	cfg := DefaultConfig()
	shapes := []struct {
		name  string
		build func(rng *rand.Rand) *graph.Graph
	}{
		{"planted", func(rng *rand.Rand) *graph.Graph { return plantedGraph(rng, 3+rng.Intn(3), 8+rng.Intn(8)) }},
		{"giant-core", func(rng *rand.Rand) *graph.Graph { return giantCoreGraph(rng, 15+rng.Intn(15), 20+rng.Intn(40)) }},
		{"figure1", figure1Graph},
	}
	moved := 0
	for _, shape := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/%d", shape.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				g0 := shape.build(rng)
				e, err := New(g0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				before := decomposedTable(g0)
				for batch := 0; batch < 4; batch++ {
					g := graph.CopyStore(e.Graph())
					seen := map[mutate.Edge]bool{}
					groups := make([][]mutate.Delta, 1+rng.Intn(3))
					for i := range groups {
						groups[i] = randomGroup(rng, g, seen)
					}
					if _, _, err := e.ApplyGroups(groups); err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
				}
				live := e.etruss
				if diff := sameTable(live, decomposedTable(e.Graph())); diff != "" {
					t.Fatalf("live table differs from a decomposition of the live graph: %s", diff)
				}
				if sameTable(live, before) != "" {
					moved++
				}

				path := filepath.Join(t.TempDir(), "g.snap")
				if _, err := e.WriteSnapshotFile(path); err != nil {
					t.Fatal(err)
				}
				for _, mount := range []struct {
					name string
					open func() (*store.Snapshot, error)
				}{
					{"heap", func() (*store.Snapshot, error) { return store.OpenFile(path) }},
					{"mapped", func() (*store.Snapshot, error) {
						m, err := store.OpenMapped(path)
						if err != nil {
							return nil, err
						}
						t.Cleanup(func() { m.Close() })
						return m.Snapshot(), nil
					}},
				} {
					snap, err := mount.open()
					if err != nil {
						t.Fatalf("%s: %v", mount.name, err)
					}
					re, err := NewFromSnapshot(snap, cfg)
					if err != nil {
						t.Fatalf("%s: %v", mount.name, err)
					}
					if _, err := re.Apply([]mutate.Delta{mutate.SetAttr(0, []string{"tok0"}, nil)}); err != nil {
						t.Fatalf("%s: first mutation: %v", mount.name, err)
					}
					if diff := sameTable(re.etruss, decomposedTable(snap.Graph)); diff != "" {
						t.Errorf("%s: first mutation's table differs from a decomposition of the compacted graph: %s", mount.name, diff)
					}
					if diff := sameTable(re.etruss, live); diff != "" {
						t.Errorf("%s: first mutation's table differs from the live table before compaction: %s", mount.name, diff)
					}
				}
			})
		}
	}
	if moved < len(shapes)*6/2 {
		t.Fatalf("only %d of %d cases moved a trussness; the mutations test too little", moved, len(shapes)*6)
	}
}
