package clique

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func buildGraph(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return b.MustBuild()
}

func kn(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.MustBuild()
}

func TestMaximalCliquesKn(t *testing.T) {
	for n := 3; n <= 6; n++ {
		g := kn(n)
		cliques, err := MaximalCliques(g, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(cliques) != 1 || len(cliques[0]) != n {
			t.Errorf("K%d: cliques = %v", n, cliques)
		}
	}
}

func TestMaximalCliquesTwoTriangles(t *testing.T) {
	// Two triangles sharing an edge form two maximal triangles.
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}})
	cliques, err := MaximalCliques(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 2 {
		t.Fatalf("cliques = %v, want 2 triangles", cliques)
	}
	for _, c := range cliques {
		if len(c) != 3 {
			t.Errorf("clique %v is not a triangle", c)
		}
	}
}

func TestMaximalCliquesMinSize(t *testing.T) {
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}})
	cliques, err := MaximalCliques(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cliques) != 1 {
		t.Errorf("cliques = %v, want only the triangle", cliques)
	}
}

func TestMaximalCliquesBudget(t *testing.T) {
	// A graph with many maximal cliques: a complete tripartite-ish star of
	// triangles around node 0.
	edges := [][2]int{}
	n := 21
	for i := 1; i+1 < n; i += 2 {
		edges = append(edges, [2]int{0, i}, [2]int{0, i + 1}, [2]int{i, i + 1})
	}
	g := buildGraph(n, edges)
	cliques, err := MaximalCliques(g, 3, 3)
	if err != ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if len(cliques) != 3 {
		t.Errorf("returned %d cliques, want the 3 found before the budget", len(cliques))
	}
}

func TestCommunityPercolation(t *testing.T) {
	// Two K4s sharing a triangle (3 nodes): for k=4 they percolate (overlap
	// k−1=3), so the community is all 5 nodes.
	g := buildGraph(5, [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4 on 0..3
		{1, 4}, {2, 4}, {3, 4}, // K4 on 1,2,3,4
	})
	members, err := Community(g, 0, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 5 {
		t.Fatalf("community = %v, want all 5 nodes", members)
	}
}

func TestCommunityNoPercolationAcrossSmallOverlap(t *testing.T) {
	// Two triangles sharing one node: for k=3 the overlap is 1 < k−1=2, so
	// the community of q=0 is only its own triangle.
	g := buildGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	members, err := Community(g, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{0, 1, 2}
	if len(members) != 3 {
		t.Fatalf("community = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("community = %v, want %v", members, want)
		}
	}
}

func TestCommunityEdgeOverlapPercolates(t *testing.T) {
	// Two triangles sharing an edge percolate at k=3 (overlap 2 = k−1).
	g := buildGraph(4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}, {2, 3}})
	members, err := Community(g, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("community = %v, want all 4 nodes", members)
	}
}

func TestCommunityNone(t *testing.T) {
	g := buildGraph(3, [][2]int{{0, 1}, {1, 2}})
	members, err := Community(g, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if members != nil {
		t.Errorf("community = %v, want nil (no triangle)", members)
	}
	if _, err := Community(g, 0, 1, 0); err == nil {
		t.Error("k=1 accepted")
	}
}

// naiveMaximalCliques enumerates maximal cliques by subset brute force.
func naiveMaximalCliques(g *graph.Graph, minSize int) [][]graph.NodeID {
	n := g.NumNodes()
	isClique := func(mask int) bool {
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 {
				continue
			}
			for u := v + 1; u < n; u++ {
				if mask&(1<<u) != 0 && !g.HasEdge(graph.NodeID(v), graph.NodeID(u)) {
					return false
				}
			}
		}
		return true
	}
	var out [][]graph.NodeID
	for mask := 1; mask < 1<<n; mask++ {
		if !isClique(mask) {
			continue
		}
		// Maximal: no superset clique.
		maximal := true
		for v := 0; v < n && maximal; v++ {
			if mask&(1<<v) == 0 && isClique(mask|1<<v) {
				maximal = false
			}
		}
		if !maximal {
			continue
		}
		var c []graph.NodeID
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				c = append(c, graph.NodeID(v))
			}
		}
		if len(c) >= minSize {
			out = append(out, c)
		}
	}
	return out
}

func TestPropertyBronKerboschMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		b := graph.NewBuilder(n, 0)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		got, err := MaximalCliques(g, 1, 0)
		if err != nil {
			return false
		}
		want := naiveMaximalCliques(g, 1)
		if len(got) != len(want) {
			return false
		}
		canon := func(cs [][]graph.NodeID) []string {
			keys := make([]string, len(cs))
			for i, c := range cs {
				s := append([]graph.NodeID(nil), c...)
				sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
				keys[i] = subsetKey(s)
			}
			sort.Strings(keys)
			return keys
		}
		a, bkeys := canon(got), canon(want)
		for i := range a {
			if a[i] != bkeys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCommunityIsUnionOfKCliquesWithQ(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(10)
		b := graph.NewBuilder(n, 0)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		q := graph.NodeID(rng.Intn(n))
		k := 3 + rng.Intn(2)
		members, err := Community(g, q, k, 0)
		if err != nil {
			return false
		}
		if members == nil {
			return true
		}
		// q must be a member, and every member must be in some k-clique
		// inside the community (i.e. the community's induced subgraph has a
		// k-clique through each member).
		in := map[graph.NodeID]bool{}
		hasQ := false
		for _, v := range members {
			in[v] = true
			if v == q {
				hasQ = true
			}
		}
		if !hasQ {
			return false
		}
		sub, orig := graph.InducedSubgraphOf(g, members)
		cliques, err := enumerateKCliques(sub, k, 100000)
		if err != nil {
			return false
		}
		covered := map[graph.NodeID]bool{}
		for _, c := range cliques {
			for _, v := range c {
				covered[orig[v]] = true
			}
		}
		for _, v := range members {
			if !covered[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
