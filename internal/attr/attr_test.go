package attr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/ws"
)

// imdbFixture reproduces the node attributes of Figure 1 (v1..v5).
func imdbFixture(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5, 2)
	b.SetTextAttrs(0, "movie", "crime", "drama")
	b.SetNumAttrs(0, 9.2, 1.6e6)
	b.SetTextAttrs(1, "movie", "crime", "drama")
	b.SetNumAttrs(1, 9.0, 1.1e6)
	b.SetTextAttrs(2, "movie", "crime", "drama")
	b.SetNumAttrs(2, 8.3, 839e3)
	b.SetTextAttrs(3, "tvseries", "romance", "drama")
	b.SetNumAttrs(3, 5.7, 800)
	b.SetTextAttrs(4, "movie", "action", "crime")
	b.SetNumAttrs(4, 6.2, 6.7e3)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.MustBuild()
}

func TestJaccard(t *testing.T) {
	g := imdbFixture(t)
	m, err := NewMetric(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Jaccard(0, 1); d != 0 {
		t.Errorf("identical sets: Jaccard = %v, want 0", d)
	}
	// v1 {movie,crime,drama} vs v4 {tvseries,romance,drama}: |∩|=1, |∪|=5.
	if d, want := m.Jaccard(0, 3), 1-1.0/5; math.Abs(d-want) > 1e-12 {
		t.Errorf("Jaccard(v1,v4) = %v, want %v", d, want)
	}
	// v1 vs v5 {movie,action,crime}: |∩|=2, |∪|=4.
	if d, want := m.Jaccard(0, 4), 0.5; math.Abs(d-want) > 1e-12 {
		t.Errorf("Jaccard(v1,v5) = %v, want %v", d, want)
	}
}

func TestJaccardEmptySets(t *testing.T) {
	b := graph.NewBuilder(2, 0)
	g := b.MustBuild()
	m, _ := NewMetric(g, 1)
	if d := m.Jaccard(0, 1); d != 0 {
		t.Errorf("two empty sets: Jaccard = %v, want 0", d)
	}
}

func TestManhattanNormalization(t *testing.T) {
	g := imdbFixture(t)
	m, _ := NewMetric(g, 0)
	// v1 has max rating (9.2) and max #ratings (1.6M); v4 has min of both.
	if d := m.Manhattan(0, 3); math.Abs(d-1) > 1e-12 {
		t.Errorf("Manhattan(extremes) = %v, want 1", d)
	}
	if d := m.Manhattan(2, 2); d != 0 {
		t.Errorf("Manhattan(self) = %v, want 0", d)
	}
}

func TestCompositeConvexCombination(t *testing.T) {
	g := imdbFixture(t)
	for _, gamma := range []float64{0, 0.25, 0.5, 0.75, 1} {
		m, err := NewMetric(g, gamma)
		if err != nil {
			t.Fatal(err)
		}
		jd := m.Jaccard(0, 3)
		md := m.Manhattan(0, 3)
		want := gamma*jd + (1-gamma)*md
		if got := m.Distance(0, 3); math.Abs(got-want) > 1e-12 {
			t.Errorf("gamma=%v: Distance = %v, want %v", gamma, got, want)
		}
	}
}

func TestNewMetricRejectsBadGamma(t *testing.T) {
	g := imdbFixture(t)
	for _, gamma := range []float64{-0.1, 1.1} {
		if _, err := NewMetric(g, gamma); err == nil {
			t.Errorf("gamma=%v accepted", gamma)
		}
	}
}

func TestDelta(t *testing.T) {
	dist := []float64{0, 0.7, 0.6, 0.6, 0.5, 0.3}
	// The example above Figure 3: δ(H2) over {v1..v6}\q with q=v5 (index 5
	// here holds f=0.3 for v6 etc.) — use members 0..5 with q=0.
	members := []graph.NodeID{0, 1, 2, 3, 4, 5}
	want := (0.7 + 0.6 + 0.6 + 0.5 + 0.3) / 5
	if got := Delta(dist, members, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Delta = %v, want %v", got, want)
	}
	if got := Delta(dist, []graph.NodeID{0}, 0); got != 0 {
		t.Errorf("Delta({q}) = %v, want 0", got)
	}
}

func TestQueryDist(t *testing.T) {
	g := imdbFixture(t)
	m, _ := NewMetric(g, 0.5)
	dist := m.QueryDist(0)
	if dist[0] != 0 {
		t.Errorf("dist[q] = %v, want 0", dist[0])
	}
	for v := 1; v < len(dist); v++ {
		if want := m.Distance(graph.NodeID(v), 0); dist[v] != want {
			t.Errorf("dist[%d] = %v, want %v", v, dist[v], want)
		}
	}
}

func TestMaxPairwise(t *testing.T) {
	g := imdbFixture(t)
	m, _ := NewMetric(g, 0.5)
	members := []graph.NodeID{0, 1, 2, 3, 4}
	want := 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if d := m.Distance(graph.NodeID(i), graph.NodeID(j)); d > want {
				want = d
			}
		}
	}
	if got := m.MaxPairwise(members); got != want {
		t.Errorf("MaxPairwise = %v, want %v", got, want)
	}
}

func TestSharedTokens(t *testing.T) {
	if got := SharedTokens([]int32{1, 3, 5}, []int32{2, 3, 5, 9}); got != 2 {
		t.Errorf("SharedTokens = %d, want 2", got)
	}
	if got := SharedTokens(nil, []int32{1}); got != 0 {
		t.Errorf("SharedTokens(nil) = %d", got)
	}
}

func TestPropertyDistanceRangeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		dims := 1 + rng.Intn(3)
		b := graph.NewBuilder(n, dims)
		toks := []string{"a", "b", "c", "d", "e", "f"}
		for v := 0; v < n; v++ {
			var mine []string
			for _, s := range toks {
				if rng.Intn(2) == 0 {
					mine = append(mine, s)
				}
			}
			b.SetTextAttrs(graph.NodeID(v), mine...)
			vals := make([]float64, dims)
			for d := range vals {
				vals[d] = rng.Float64()*100 - 50
			}
			b.SetNumAttrs(graph.NodeID(v), vals...)
		}
		g := b.MustBuild()
		m, err := NewMetric(g, rng.Float64())
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			d := m.Distance(u, v)
			if d < 0 || d > 1 {
				return false
			}
			if math.Abs(d-m.Distance(v, u)) > 1e-12 {
				return false
			}
			if u == v && d != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestViewMatchesDistance: a lazy View's f(v,q) is Metric.Distance(v, q) bit
// for bit, on random graphs with and without numerical dimensions, and with
// empty token sets.
func TestViewMatchesDistance(t *testing.T) {
	var sc ws.DistScratch
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, dim := 2+rng.Intn(60), int(seed%4)
		b := graph.NewBuilder(n, dim)
		for v := range graph.NodeID(n) {
			var toks []string
			for range rng.Intn(5) { // none at all one time in five
				toks = append(toks, fmt.Sprintf("t%d", rng.Intn(8)))
			}
			b.SetTextAttrs(v, toks...)
			vals := make([]float64, dim)
			for i := range vals {
				vals[i] = float64(rng.Intn(5)) * rng.NormFloat64() // repeats and zero spans too
			}
			b.SetNumAttrs(v, vals...)
		}
		g := b.MustBuild()
		m, err := NewMetric(g, rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		q := graph.NodeID(rng.Intn(n))
		f := m.View(q, &sc)
		for _, v := range rng.Perm(n) {
			if got, want := f.At(graph.NodeID(v)), m.Distance(graph.NodeID(v), q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d dim %d: f(%d,%d) = %v, Distance %v", seed, dim, v, q, got, want)
			}
		}
	}
}
