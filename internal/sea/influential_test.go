package sea

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/kcore"
)

// attrMetric builds the default test metric over a generated dataset.
func attrMetric(t testing.TB, d *dataset.Generated) (*attr.Metric, error) {
	t.Helper()
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return m, nil
}

// twoCliquesGraph: K4 on {0..3} and K4 on {0,4,5,6} sharing q=0.
func twoCliquesGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(7, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	group := []graph.NodeID{0, 4, 5, 6}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(group[i], group[j])
		}
	}
	return b.MustBuild()
}

func TestInfluentialSearchPicksHighInfluenceClique(t *testing.T) {
	g := twoCliquesGraph(t)
	// Clique {0,4,5,6} is uniformly more influential.
	influence := []float64{5, 1, 1, 1, 8, 9, 7}
	res, err := InfluentialSearch(g, 0, 3, influence)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinInfluence != 5 {
		t.Errorf("MinInfluence = %v, want 5 (the query's own score)", res.MinInfluence)
	}
	want := map[graph.NodeID]bool{0: true, 4: true, 5: true, 6: true}
	if len(res.Community) != 4 {
		t.Fatalf("community = %v, want the high-influence clique", res.Community)
	}
	for _, v := range res.Community {
		if !want[v] {
			t.Errorf("low-influence node %d kept", v)
		}
	}
	if res.MaxEstimate.Max < 9 {
		t.Errorf("EVT max = %v, want ≥ the observed 9", res.MaxEstimate.Max)
	}
}

func TestInfluentialSearchErrors(t *testing.T) {
	g := twoCliquesGraph(t)
	if _, err := InfluentialSearch(g, 0, 3, []float64{1, 2}); err == nil {
		t.Error("accepted short influence vector")
	}
	if _, err := InfluentialSearch(g, 0, 6, make([]float64, 7)); !errors.Is(err, ErrNoCommunity) {
		t.Errorf("err = %v, want ErrNoCommunity", err)
	}
}

// bruteMaxMin computes the max-min-influence connected k-core by brute force.
func bruteMaxMin(g *graph.Graph, q graph.NodeID, k int, influence []float64) float64 {
	n := g.NumNodes()
	best := math.Inf(-1)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<uint(q)) == 0 {
			continue
		}
		var members []graph.NodeID
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				members = append(members, graph.NodeID(v))
			}
		}
		if len(members) < k+1 || !kcore.InKCoreSet(g, members, k) {
			continue
		}
		if !connectedThrough(g, members, q) {
			continue
		}
		mi := influence[members[0]]
		for _, v := range members[1:] {
			if influence[v] < mi {
				mi = influence[v]
			}
		}
		if mi > best {
			best = mi
		}
	}
	return best
}

func connectedThrough(g *graph.Graph, members []graph.NodeID, q graph.NodeID) bool {
	in := map[graph.NodeID]bool{}
	for _, v := range members {
		in[v] = true
	}
	seen := map[graph.NodeID]bool{q: true}
	stack := []graph.NodeID{q}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(v) {
			if in[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(members)
}

// TestPropertyInfluentialMatchesBruteForce holds the peel to the brute-force
// max-min objective, with influence in twenty levels and in at most four,
// where ties are common and the peel order breaks them. The community it
// returns must be a connected k-core with q whose least influence is the
// one reported.
func TestPropertyInfluentialMatchesBruteForce(t *testing.T) {
	f := func(seed int64, tieHeavy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(6)
		b := graph.NewBuilder(n, 0)
		for i := 0; i < n-1; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		}
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		q := graph.NodeID(rng.Intn(n))
		k := 1 + rng.Intn(2)
		levels := 20
		if tieHeavy {
			levels = 1 + rng.Intn(4)
		}
		influence := make([]float64, n)
		for i := range influence {
			influence[i] = float64(rng.Intn(levels))
		}
		res, err := InfluentialSearch(g, q, k, influence)
		if errors.Is(err, ErrNoCommunity) {
			return math.IsInf(bruteMaxMin(g, q, k, influence), -1)
		}
		if err != nil || res.MinInfluence != bruteMaxMin(g, q, k, influence) {
			return false
		}
		least := math.Inf(1)
		for _, v := range res.Community {
			least = min(least, influence[v])
		}
		return least == res.MinInfluence && containsNode(res.Community, q) &&
			kcore.InKCoreSet(g, res.Community, k) && connectedThrough(g, res.Community, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestInfluentialAllocsIndependentOfSize runs the peel over two ring
// lattices whose maximal 4-core is the whole graph, 1 000 and 4 000 nodes:
// a search allocates its answer, the EVT estimate's inputs and the result,
// a count that must not grow with the core it peels.
func TestInfluentialAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		g := ringLattice(t, n, 6)
		rng := rand.New(rand.NewSource(int64(n)))
		influence := make([]float64, n)
		for i := range influence {
			influence[i] = float64(rng.Intn(50))
		}
		return testing.AllocsPerRun(3, func() {
			res, err := InfluentialSearch(g, 0, 4, influence)
			if err != nil || len(res.Community) < 5 {
				t.Fatalf("n=%d: %v", n, err)
			}
		})
	}
	if small, large := allocs(1000), allocs(4000); large > small {
		t.Fatalf("a search allocates %v times on a 1 000-node core, %v on a 4 000-node one", small, large)
	}
}
