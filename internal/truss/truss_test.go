package truss

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// clique builds K_n.
func clique(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.MustBuild()
}

func TestEdgeIndexRoundTrip(t *testing.T) {
	g := clique(5)
	ix := NewEdgeIndex(g)
	if ix.NumEdges() != 10 {
		t.Fatalf("NumEdges = %d, want 10", ix.NumEdges())
	}
	seen := map[int32]bool{}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			e1, ok1 := ix.EdgeID(graph.NodeID(u), graph.NodeID(v))
			e2, ok2 := ix.EdgeID(graph.NodeID(v), graph.NodeID(u))
			if !ok1 || !ok2 || e1 != e2 {
				t.Fatalf("EdgeID(%d,%d) inconsistent: %d/%v vs %d/%v", u, v, e1, ok1, e2, ok2)
			}
			seen[e1] = true
			if ix.U[e1] != graph.NodeID(u) || ix.V[e1] != graph.NodeID(v) {
				t.Errorf("endpoints of %d = (%d,%d), want (%d,%d)", e1, ix.U[e1], ix.V[e1], u, v)
			}
		}
	}
	if len(seen) != 10 {
		t.Errorf("distinct edge IDs = %d, want 10", len(seen))
	}
	if _, ok := ix.EdgeID(0, 0); ok {
		t.Error("EdgeID(0,0) found nonexistent edge")
	}
}

func TestSupportsClique(t *testing.T) {
	g := clique(5)
	ix := NewEdgeIndex(g)
	for e, s := range ix.Supports() {
		if s != 3 { // every edge of K5 closes 3 triangles
			t.Errorf("support[%d] = %d, want 3", e, s)
		}
	}
}

func TestDecomposeClique(t *testing.T) {
	// K_n is an n-truss; every edge has trussness n.
	for n := 3; n <= 6; n++ {
		g := clique(n)
		_, truss := Decompose(g)
		for e, k := range truss {
			if int(k) != n {
				t.Errorf("K%d: trussness[%d] = %d, want %d", n, e, k, n)
			}
		}
	}
}

func TestDecomposeTwoTrianglesBridge(t *testing.T) {
	// Two triangles joined by a bridge: triangle edges have trussness 3,
	// the bridge has trussness 2.
	b := graph.NewBuilder(6, 0)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := b.MustBuild()
	ix, truss := Decompose(g)
	for e := range truss {
		u, v := ix.U[e], ix.V[e]
		want := int32(3)
		if u == 2 && v == 3 {
			want = 2
		}
		if truss[e] != want {
			t.Errorf("trussness(%d,%d) = %d, want %d", u, v, truss[e], want)
		}
	}
}

func TestMaximalConnectedKTruss(t *testing.T) {
	// K4 attached to a path: the 4-truss around q=0 is exactly the K4.
	b := graph.NewBuilder(7, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	g := b.MustBuild()
	members := MaximalConnectedKTruss(g, 0, 4)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if len(members) != 4 {
		t.Fatalf("members = %v, want the K4", members)
	}
	for i, v := range members {
		if v != graph.NodeID(i) {
			t.Fatalf("members = %v, want {0,1,2,3}", members)
		}
	}
	if got := MaximalConnectedKTruss(g, 0, 5); got != nil {
		t.Errorf("5-truss = %v, want nil", got)
	}
	if got := MaximalConnectedKTruss(g, 5, 4); got != nil {
		t.Errorf("4-truss of path node = %v, want nil", got)
	}
}

func TestSubRemoveRestore(t *testing.T) {
	// K5: removing one node leaves K4, still a 4-truss.
	g := clique(5)
	members := MaximalConnectedKTruss(g, 0, 4)
	sub, err := NewSub(g, 0, 4, members)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 5 {
		t.Fatalf("size = %d, want 5", sub.Size())
	}
	removed, qAlive := sub.RemoveCascade(4)
	if !qAlive {
		t.Fatal("q must survive K5→K4")
	}
	mem := sub.Members(nil)
	if len(mem) != 4 {
		t.Fatalf("members after removal = %v", mem)
	}
	if !InKTrussSet(g, mem, 4) {
		t.Errorf("members %v are not a 4-truss", mem)
	}
	sub.Restore()
	if sub.Size() != 5 {
		t.Errorf("size after restore = %d, want 5", sub.Size())
	}
	// Supports must be fully restored: remove again and get the same result.
	removed2, _ := sub.RemoveCascade(4)
	if len(removed2) != len(removed) {
		t.Errorf("second removal differs: %v vs %v", removed2, removed)
	}
	sub.Restore()
}

func TestSubCollapse(t *testing.T) {
	// K4 with k=4: removing any node destroys all triangles.
	g := clique(4)
	members := MaximalConnectedKTruss(g, 0, 4)
	sub, err := NewSub(g, 0, 4, members)
	if err != nil {
		t.Fatal(err)
	}
	if _, qAlive := sub.RemoveCascade(1); qAlive {
		t.Error("q should die when K4 collapses under k=4")
	}
	sub.Restore()
	if sub.Size() != 4 {
		t.Errorf("size after restore = %d, want 4", sub.Size())
	}
}

func TestPropertyTrussInvariant(t *testing.T) {
	// For random graphs, the maximal connected k-truss must satisfy the
	// k-truss predicate, and Sub removals must preserve it.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		b := graph.NewBuilder(n, 0)
		m := n * (2 + rng.Intn(3))
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		k := 3 + rng.Intn(2)
		q := graph.NodeID(rng.Intn(n))
		members := MaximalConnectedKTruss(g, q, k)
		if members == nil {
			return true
		}
		if !InKTrussSet(g, members, k) {
			return false
		}
		sub, err := NewSub(g, q, k, members)
		if err != nil {
			return false
		}
		for trial := 0; trial < 6; trial++ {
			mem := sub.Members(nil)
			v := mem[rng.Intn(len(mem))]
			if v == q {
				continue
			}
			size := sub.Size()
			if _, qAlive := sub.RemoveCascade(v); qAlive && !InKTrussSet(g, sub.Members(nil), k) {
				return false
			}
			sub.Restore()
			if sub.Size() != size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeAgainstPredicate(t *testing.T) {
	// For every edge, trussness k means the edge is in the k-truss computed
	// by naive peeling at level k but not at level k+1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(12)
		b := graph.NewBuilder(n, 0)
		m := n * (1 + rng.Intn(3))
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		ix, truss := Decompose(g)
		for k := 3; k <= 6; k++ {
			want := naiveKTrussEdges(g, k)
			for e := range truss {
				inTruss := int(truss[e]) >= k
				key := [2]graph.NodeID{ix.U[e], ix.V[e]}
				if want[key] != inTruss {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// naiveKTrussEdges peels edges with support < k−2 until fixpoint and returns
// the surviving edge set.
func naiveKTrussEdges(g *graph.Graph, k int) map[[2]graph.NodeID]bool {
	alive := map[[2]graph.NodeID]bool{}
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if u > graph.NodeID(v) {
				alive[[2]graph.NodeID{graph.NodeID(v), u}] = true
			}
		}
	}
	has := func(a, b graph.NodeID) bool {
		if a > b {
			a, b = b, a
		}
		return alive[[2]graph.NodeID{a, b}]
	}
	for {
		changed := false
		for e, ok := range alive {
			if !ok {
				continue
			}
			u, v := e[0], e[1]
			sup := 0
			for _, w := range g.Neighbors(u) {
				if w != v && has(u, w) && has(v, w) && g.HasEdge(v, w) {
					sup++
				}
			}
			if sup < k-2 {
				delete(alive, e)
				changed = true
			}
		}
		if !changed {
			return alive
		}
	}
}
