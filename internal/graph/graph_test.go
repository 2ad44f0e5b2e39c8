package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildPath(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n, 0)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(3, 3) // self loop
	b.SetTextAttrs(0, "movie", "crime", "drama")
	b.SetNumAttrs(0, 9.2, 1.6e6)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3 (dup and self-loop dropped)", g.NumEdges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees = %d,%d want 2,0", g.Degree(0), g.Degree(3))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Errorf("HasEdge wrong")
	}
	if got := len(g.TextAttrs(0)); got != 3 {
		t.Errorf("TextAttrs(0) len = %d, want 3", got)
	}
	if got := g.NumAttrs(0); got[0] != 9.2 || got[1] != 1.6e6 {
		t.Errorf("NumAttrs(0) = %v", got)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2, 0)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
}

func TestTextAttrsDeduplicated(t *testing.T) {
	b := NewBuilder(1, 0)
	b.SetTextAttrs(0, "a", "b", "a", "a")
	g := b.MustBuild()
	if got := len(g.TextAttrs(0)); got != 2 {
		t.Errorf("deduplicated len = %d, want 2", got)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	a := d.Intern("alpha")
	b := d.Intern("beta")
	if a == b {
		t.Fatal("distinct strings got same ID")
	}
	if again := d.Intern("alpha"); again != a {
		t.Errorf("re-intern changed ID: %d vs %d", again, a)
	}
	if d.Name(a) != "alpha" {
		t.Errorf("Name(%d) = %q", a, d.Name(a))
	}
	if id, ok := d.Lookup("beta"); !ok || id != b {
		t.Errorf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup(gamma) found missing token")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestComponentWithFilter(t *testing.T) {
	g := buildPath(t, 6)
	comp := g.Component(0, func(v NodeID) bool { return v != 3 })
	if len(comp) != 3 {
		t.Errorf("component = %v, want {0,1,2}", comp)
	}
	if comp = g.Component(0, func(v NodeID) bool { return v == 5 }); comp != nil {
		t.Errorf("component of filtered-out src = %v, want nil", comp)
	}
}

// InducedSubgraphOf returns the subgraph of any Store backing induced by
// nodes, with attributes copied and the dictionary shared, plus the mapping
// from new IDs to original IDs: the reference InducedStructureOf is held to
// (TestInducedStructureMatchesInducedSubgraph).
func InducedSubgraphOf(g Store, nodes []NodeID) (*Graph, []NodeID) {
	remap := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, len(nodes))
	for i, v := range nodes {
		remap[v] = NodeID(i)
		orig[i] = v
	}
	dim := g.NumDim()
	b := NewBuilder(len(nodes), dim)
	b.dict = g.Dict()
	var nbr []NodeID
	for i, v := range nodes {
		b.SetTextTokens(NodeID(i), g.TextAttrs(v))
		if dim > 0 {
			b.SetNumAttrs(NodeID(i), g.NumAttrs(v)...)
		}
		for _, u := range g.NeighborsInto(&nbr, v) {
			if j, ok := remap[u]; ok && j > NodeID(i) {
				b.AddEdge(NodeID(i), j)
			}
		}
	}
	sub := b.MustBuild()
	return sub, orig
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(5, 1)
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	for v := 0; v < 5; v++ {
		b.SetNumAttrs(NodeID(v), float64(v))
		b.SetTextAttrs(NodeID(v), "x")
	}
	g := b.MustBuild()
	sub, orig := InducedSubgraphOf(g, []NodeID{1, 2, 3})
	if sub.NumNodes() != 3 {
		t.Fatalf("sub nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 3 { // 1-2, 2-3, 1-3
		t.Errorf("sub edges = %d, want 3", sub.NumEdges())
	}
	for i, o := range orig {
		if sub.NumAttrs(NodeID(i))[0] != float64(o) {
			t.Errorf("attr of induced %d = %v, want %d", i, sub.NumAttrs(NodeID(i)), o)
		}
	}
}

// randomGraph builds a deterministic random graph for property tests.
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n, 0)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

func TestPropertyAdjacencySymmetricSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		for v := 0; v < n; v++ {
			ns := g.Neighbors(NodeID(v))
			for i, u := range ns {
				if i > 0 && ns[i-1] >= u {
					return false // not strictly sorted → dup or disorder
				}
				if !g.HasEdge(u, NodeID(v)) {
					return false // asymmetric
				}
				if u == NodeID(v) {
					return false // self loop survived
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreeSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(NodeID(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInducedSubgraphEdges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(4*n))
		// Random subset.
		var nodes []NodeID
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, NodeID(v))
			}
		}
		if len(nodes) == 0 {
			return true
		}
		sub, orig := InducedSubgraphOf(g, nodes)
		// Every induced edge exists in g; count matches direct count.
		cnt := 0
		in := map[NodeID]bool{}
		for _, v := range nodes {
			in[v] = true
		}
		for _, v := range nodes {
			for _, u := range g.Neighbors(v) {
				if in[u] && u > v {
					cnt++
				}
			}
		}
		if sub.NumEdges() != cnt {
			return false
		}
		for v := 0; v < sub.NumNodes(); v++ {
			for _, u := range sub.Neighbors(NodeID(v)) {
				if !g.HasEdge(orig[v], orig[u]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDegreeStats(t *testing.T) {
	g := buildPath(t, 4) // degrees 1,2,2,1
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Errorf("AvgDegree = %v, want 1.5", got)
	}
}
