package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ws"
)

// testWS borrows a pooled workspace for the test and returns it to the pool
// when the test ends.
func testWS(t testing.TB) *ws.Workspace {
	w := ws.Get()
	t.Cleanup(w.Release)
	return w
}

// lineGraph builds a path 0-1-2-…-(n-1) with f(v,q)=dist[v].
func lineGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.MustBuild()
}

func TestBuildGqBestFirstOrder(t *testing.T) {
	// Star: q=0 with leaves 1..5; distances favor high-ID leaves. Best-first
	// must pick the closest leaves.
	b := graph.NewBuilder(6, 0)
	for i := 1; i < 6; i++ {
		b.AddEdge(0, graph.NodeID(i))
	}
	g := b.MustBuild()
	dist := []float64{0, 0.9, 0.7, 0.5, 0.3, 0.1}
	gq := BuildGqInto(nil, g, 0, dist, 3, testWS(t))
	if len(gq) != 3 {
		t.Fatalf("|Gq| = %d, want 3", len(gq))
	}
	if gq[0] != 0 {
		t.Errorf("Gq[0] = %d, want q", gq[0])
	}
	if gq[1] != 5 || gq[2] != 4 {
		t.Errorf("Gq = %v, want closest leaves 5,4 first", gq)
	}
}

func TestBuildGqExhaustsComponent(t *testing.T) {
	g := lineGraph(4)
	dist := []float64{0, 0.1, 0.2, 0.3}
	gq := BuildGqInto(nil, g, 0, dist, 100, testWS(t))
	if len(gq) != 4 {
		t.Errorf("|Gq| = %d, want whole component", len(gq))
	}
}

func TestProbabilities(t *testing.T) {
	pop := []graph.NodeID{0, 1, 2}
	dist := []float64{0, 0.5, 1}
	ps := ProbabilitiesInto(nil, pop, dist)
	sum := 0.0
	for _, p := range ps {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if !(ps[0] > ps[1] && ps[1] > ps[2]) {
		t.Errorf("ps = %v, want decreasing with distance", ps)
	}
	if ps[2] != 0 {
		t.Errorf("ps[dist=1] = %v, want 0", ps[2])
	}
}

func TestProbabilitiesDegenerate(t *testing.T) {
	pop := []graph.NodeID{0, 1}
	ps := ProbabilitiesInto(nil, pop, []float64{1, 1})
	if ps[0] != 0.5 || ps[1] != 0.5 {
		t.Errorf("degenerate ps = %v, want uniform", ps)
	}
}

func TestWeightedSampleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pop := make([]graph.NodeID, 100)
	w := make([]float64, 100)
	for i := range pop {
		pop[i] = graph.NodeID(i)
		w[i] = float64(i + 1)
	}
	s := WeightedSampleInto(nil, pop, w, 20, 0, rng, testWS(t))
	if len(s) != 20 {
		t.Fatalf("|S| = %d, want 20", len(s))
	}
	seen := map[graph.NodeID]bool{}
	hasQ := false
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate node %d", v)
		}
		seen[v] = true
		if v == 0 {
			hasQ = true
		}
	}
	if !hasQ {
		t.Error("query node not forced into the sample")
	}
}

func TestWeightedSampleWholePopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := []graph.NodeID{3, 1, 4}
	s := WeightedSampleInto(nil, pop, []float64{1, 1, 1}, 10, 3, rng, testWS(t))
	if len(s) != 3 {
		t.Errorf("|S| = %d, want whole population", len(s))
	}
}

func TestWeightedSampleBias(t *testing.T) {
	// Node 1 has 9× the weight of node 2; over many draws of size 1 from
	// {1,2} (q excluded by using q=-1), node 1 must dominate.
	rng := rand.New(rand.NewSource(9))
	wk := testWS(t)
	pop := []graph.NodeID{1, 2}
	w := []float64{0.9, 0.1}
	count := 0
	trials := 2000
	for i := 0; i < trials; i++ {
		s := WeightedSampleInto(nil, pop, w, 1, -1, rng, wk)
		if s[0] == 1 {
			count++
		}
	}
	frac := float64(count) / float64(trials)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("node 1 drawn %.3f of the time, want ≈0.9", frac)
	}
}

func TestPropertySampleDistinctAndSized(t *testing.T) {
	wk := testWS(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		pop := make([]graph.NodeID, n)
		w := make([]float64, n)
		for i := range pop {
			pop[i] = graph.NodeID(i)
			w[i] = rng.Float64()
		}
		size := 1 + rng.Intn(n)
		q := graph.NodeID(rng.Intn(n))
		s := WeightedSampleInto(nil, pop, w, size, q, rng, wk)
		if len(s) != size {
			return false
		}
		seen := map[graph.NodeID]bool{}
		hasQ := false
		for _, v := range s {
			if seen[v] {
				return false
			}
			seen[v] = true
			if v == q {
				hasQ = true
			}
		}
		return hasQ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGqContainsQAndMeetsSize(t *testing.T) {
	wk := testWS(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		b := graph.NewBuilder(n, 0)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = rng.Float64()
		}
		q := graph.NodeID(rng.Intn(n))
		dist[q] = 0
		want := 1 + rng.Intn(n)
		gq := BuildGqInto(nil, g, q, dist, want, wk)
		if len(gq) == 0 || gq[0] != q {
			return false
		}
		// Size is min(want, |component of q|).
		comp := g.Component(q, nil)
		expect := want
		if len(comp) < expect {
			expect = len(comp)
		}
		return len(gq) == expect
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
