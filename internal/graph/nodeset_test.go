package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestNodeSetBasics(t *testing.T) {
	var s NodeSet
	s.Reset(10)
	if s.Len() != 0 {
		t.Fatalf("fresh set Len=%d", s.Len())
	}
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add should report first insertion only")
	}
	if !s.Has(3) || s.Has(4) {
		t.Fatal("Has wrong")
	}
	s.Add(7)
	if s.Len() != 2 {
		t.Fatalf("Len=%d, want 2", s.Len())
	}
	if !s.Remove(3) || s.Remove(3) {
		t.Fatal("Remove should report prior membership only")
	}
	if s.Has(3) || s.Len() != 1 {
		t.Fatal("Remove did not delete")
	}
	s.Reset(10)
	if s.Has(7) || s.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestNodeSetGrowKeepsMembership(t *testing.T) {
	var s NodeSet
	s.Reset(4)
	s.Add(2)
	// Growing within the same generation must preserve the epoch discipline
	// on the copied prefix.
	if n := len(s.stamp); n != 4 {
		t.Fatalf("Cap=%d, want 4", n)
	}
	s.Reset(100)
	if s.Has(2) {
		t.Fatal("Reset(grow) kept stale member")
	}
	s.Add(99)
	if !s.Has(99) {
		t.Fatal("Add after grow failed")
	}
}

func TestNodeSetEpochWraparound(t *testing.T) {
	var s NodeSet
	s.Reset(4)
	s.Add(1)
	s.epoch = math.MaxInt32 // next Reset must rewrite stamps, not wrap
	s.Reset(4)
	if s.Has(1) {
		t.Fatal("stale membership survived epoch wraparound")
	}
	s.Add(2)
	if !s.Has(2) || s.Has(1) {
		t.Fatal("membership wrong after wraparound")
	}
}

// TestInducedStructureMatchesInducedSubgraph checks the structure-only
// scratch-backed builder produces the same induced adjacency as the
// allocating builder, across random graphs and node subsets.
func TestInducedStructureMatchesInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc SubScratch
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		b := NewBuilder(n, 0)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		// Random subset in shuffled order, no duplicates.
		perm := rng.Perm(n)
		k := 1 + rng.Intn(n)
		nodes := make([]NodeID, k)
		for i := 0; i < k; i++ {
			nodes[i] = NodeID(perm[i])
		}

		want, wantOrig := InducedSubgraphOf(g, nodes)
		got, gotOrig := InducedStructureOf(g, nodes, &sc)

		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: size mismatch: got %d/%d want %d/%d",
				trial, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		// Compare adjacency in original-ID space (the two builders may
		// assign different induced IDs).
		wantAdj := map[[2]NodeID]bool{}
		for v := 0; v < want.NumNodes(); v++ {
			for _, u := range want.Neighbors(NodeID(v)) {
				wantAdj[[2]NodeID{wantOrig[v], wantOrig[u]}] = true
			}
		}
		count := 0
		for v := 0; v < got.NumNodes(); v++ {
			ns := got.Neighbors(NodeID(v))
			for i, u := range ns {
				if i > 0 && ns[i-1] >= u {
					t.Fatalf("trial %d: neighbors of %d not strictly sorted", trial, v)
				}
				if !wantAdj[[2]NodeID{gotOrig[v], gotOrig[u]}] {
					t.Fatalf("trial %d: extra edge (%d,%d)", trial, gotOrig[v], gotOrig[u])
				}
				count++
			}
		}
		if count != len(wantAdj) {
			t.Fatalf("trial %d: %d directed edges, want %d", trial, count, len(wantAdj))
		}
		// TextAttrs must stay callable on the structure-only graph.
		for v := 0; v < got.NumNodes(); v++ {
			if len(got.TextAttrs(NodeID(v))) != 0 {
				t.Fatalf("trial %d: structure-only graph has text attrs", trial)
			}
		}
	}
}

// TestInducedStructureReuse checks a scratch survives back-to-back builds of
// different sizes.
func TestInducedStructureReuse(t *testing.T) {
	b := NewBuilder(6, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 0)
	g := b.MustBuild()
	var sc SubScratch
	sub1, orig1 := InducedStructureOf(g, []NodeID{0, 1, 2}, &sc)
	if sub1.NumNodes() != 3 || sub1.NumEdges() != 2 || orig1[0] != 0 {
		t.Fatalf("first build wrong: n=%d m=%d", sub1.NumNodes(), sub1.NumEdges())
	}
	sub2, orig2 := InducedStructureOf(g, []NodeID{5, 4}, &sc)
	if sub2.NumNodes() != 2 || sub2.NumEdges() != 1 {
		t.Fatalf("second build wrong: n=%d m=%d", sub2.NumNodes(), sub2.NumEdges())
	}
	if orig2[0] != 4 || orig2[1] != 5 {
		t.Fatalf("orig2=%v, want sorted [4 5]", orig2)
	}
}
