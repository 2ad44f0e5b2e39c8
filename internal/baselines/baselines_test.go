package baselines

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/sea"
	"repro/internal/truss"
)

func testGraph(t testing.TB) *dataset.Generated {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "t", Nodes: 250, MinCommunity: 12, MaxCommunity: 24,
		IntraDegree: 8, InterDegree: 0.6,
		TokensPerNode: 4, PoolSize: 5, Vocab: 60, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestACQReturnsValidCore(t *testing.T) {
	d := testGraph(t)
	q := d.QueryNodes(1, 4, 1)[0]
	members, err := ACQ(context.Background(), d.Graph, q, 4, sea.KCore)
	if err != nil {
		t.Fatal(err)
	}
	if !kcore.InKCoreSet(d.Graph, members, 4) {
		t.Error("ACQ community is not a 4-core")
	}
	assertContains(t, members, q)
}

func TestACQMaximizesSharedAttrs(t *testing.T) {
	// Build a graph where restricting to a shared attribute keeps a k-core:
	// two K4s joined at q; one K4 shares attribute "x" with q.
	b := graph.NewBuilder(7, 0)
	for i := 0; i < 4; i++ { // K4 on {0,1,2,3}
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	for _, e := range [][2]int{{0, 4}, {0, 5}, {0, 6}, {4, 5}, {4, 6}, {5, 6}} { // K4 on {0,4,5,6}
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	for v := 0; v < 4; v++ {
		b.SetTextAttrs(graph.NodeID(v), "x")
	}
	for v := 4; v < 7; v++ {
		b.SetTextAttrs(graph.NodeID(v), "y")
	}
	g := b.MustBuild()
	members, err := ACQ(context.Background(), g, 0, 3, sea.KCore)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 4 {
		t.Fatalf("ACQ community = %v, want the x-sharing K4", members)
	}
	for _, v := range members {
		if v > 3 {
			t.Errorf("ACQ kept non-sharing node %d", v)
		}
	}
}

func TestACQNoCommunity(t *testing.T) {
	b := graph.NewBuilder(3, 0)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	if _, err := ACQ(context.Background(), g, 0, 3, sea.KCore); !errors.Is(err, ErrNoCommunity) {
		t.Errorf("err = %v, want ErrNoCommunity", err)
	}
}

func TestLocATCImprovesCoverage(t *testing.T) {
	d := testGraph(t)
	q := d.QueryNodes(1, 4, 2)[0]
	base := kcore.MaximalConnectedKCore(d.Graph, q, 4)
	members, err := LocATC(context.Background(), d.Graph, q, 4, sea.KCore)
	if err != nil {
		t.Fatal(err)
	}
	if !kcore.InKCoreSet(d.Graph, members, 4) {
		t.Error("LocATC community is not a 4-core")
	}
	assertContains(t, members, q)
	if CoverageScore(d.Graph, q, members)+1e-9 < CoverageScore(d.Graph, q, base) {
		t.Errorf("LocATC worsened coverage: %v vs %v",
			CoverageScore(d.Graph, q, members), CoverageScore(d.Graph, q, base))
	}
}

func TestVACImprovesWorstCase(t *testing.T) {
	d := testGraph(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	q := d.QueryNodes(1, 4, 3)[0]
	base := kcore.MaximalConnectedKCore(d.Graph, q, 4)
	members, err := VAC(context.Background(), d.Graph, m, q, 4, sea.KCore)
	if err != nil {
		t.Fatal(err)
	}
	if !kcore.InKCoreSet(d.Graph, members, 4) {
		t.Error("VAC community is not a 4-core")
	}
	assertContains(t, members, q)
	if m.MaxPairwise(members) > m.MaxPairwise(base)+1e-9 {
		t.Errorf("VAC worsened the min-max objective: %v vs %v",
			m.MaxPairwise(members), m.MaxPairwise(base))
	}
}

func TestEVACBeatsOrMatchesVAC(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "small", Nodes: 60, MinCommunity: 10, MaxCommunity: 16,
		IntraDegree: 6, InterDegree: 0.3,
		TokensPerNode: 3, PoolSize: 4, Vocab: 30, NoiseProb: 0.1,
		NumDim: 2, NumSigma: 0.08, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := attr.NewMetric(d.Graph, 0.5)
	q := d.QueryNodes(1, 3, 4)[0]
	approx, err := VAC(context.Background(), d.Graph, m, q, 3, sea.KCore)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := EVAC(context.Background(), d.Graph, m, q, 3, sea.KCore, 20000)
	if err != nil && !errors.Is(err, cserr.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	if m.MaxPairwise(ex) > m.MaxPairwise(approx)+1e-9 {
		t.Errorf("E-VAC worse than VAC: %v vs %v", m.MaxPairwise(ex), m.MaxPairwise(approx))
	}
	if !kcore.InKCoreSet(d.Graph, ex, 3) {
		t.Error("E-VAC community is not a 3-core")
	}
}

func TestTrussVariants(t *testing.T) {
	d := testGraph(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	k := 4
	found := 0
	for _, q := range d.QueryNodes(5, k, 5) {
		for name, run := range map[string]func() ([]graph.NodeID, error){
			"LocATC-Truss": func() ([]graph.NodeID, error) { return LocATC(context.Background(), d.Graph, q, k, sea.KTruss) },
			"VAC-Truss":    func() ([]graph.NodeID, error) { return VAC(context.Background(), d.Graph, m, q, k, sea.KTruss) },
			"ACQ-Truss":    func() ([]graph.NodeID, error) { return ACQ(context.Background(), d.Graph, q, k, sea.KTruss) },
		} {
			members, err := run()
			if errors.Is(err, ErrNoCommunity) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			found++
			if !truss.InKTrussSet(d.Graph, members, k) {
				t.Errorf("%s: community is not a %d-truss", name, k)
			}
			assertContains(t, members, q)
		}
	}
	if found == 0 {
		t.Error("no truss baseline ever found a community")
	}
}

func TestCoverageScoreFormula(t *testing.T) {
	b := graph.NewBuilder(3, 0)
	b.SetTextAttrs(0, "a", "b")
	b.SetTextAttrs(1, "a")
	b.SetTextAttrs(2, "c")
	g := b.MustBuild()
	// H = all three nodes; q=0 has attrs {a,b}: |V_a∩H|²=4, |V_b∩H|²=1 → 5/3.
	got := CoverageScore(g, 0, []graph.NodeID{0, 1, 2})
	if want := 5.0 / 3.0; got != want {
		t.Errorf("CoverageScore = %v, want %v", got, want)
	}
	if CoverageScore(g, 0, nil) != 0 {
		t.Error("empty members should score 0")
	}
}

func assertContains(t *testing.T, members []graph.NodeID, q graph.NodeID) {
	t.Helper()
	for _, v := range members {
		if v == q {
			return
		}
	}
	t.Errorf("query %d not in community %v", q, members)
}

// cancelRing builds a circulant graph (every node linked to its d
// successors) with one numerical attribute spreading nodes apart, so the
// min-max objective keeps improving and branch-and-bound has work to do.
func cancelRing(t testing.TB, n, d int) (*graph.Graph, *attr.Metric) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b := graph.NewBuilder(n, 2)
	for i := 0; i < n; i++ {
		b.SetNumAttrs(graph.NodeID(i), rng.Float64(), rng.Float64())
		for j := 1; j <= d; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+j)%n))
		}
	}
	g := b.MustBuild()
	m, err := attr.NewMetric(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// TestEVACContextCancellation proves the acceptance criterion for a
// baseline: a context cancelled mid-search returns promptly (well under
// 50ms) with the best community found so far and an error wrapping the
// context's error.
func TestEVACContextCancellation(t *testing.T) {
	g, m := cancelRing(t, 120, 6)

	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		members []graph.NodeID
		err     error
	}
	done := make(chan answer, 1)
	go func() {
		// Unlimited states: with random attributes both endpoints of the
		// worst pair are viable deletions, so the branch-and-bound tree is
		// exponential and cannot finish within any test budget on its own.
		members, err := EVAC(ctx, g, m, 0, 4, sea.KCore, 0)
		done <- answer{members, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	t0 := time.Now()
	var got answer
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled EVAC search did not return")
	}
	if el := time.Since(t0); el > 50*time.Millisecond {
		t.Fatalf("cancelled search took %v to return, want < 50ms", el)
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("want error wrapping context.Canceled, got %v", got.err)
	}
	if len(got.members) == 0 {
		t.Fatal("interrupted EVAC should carry the best community found so far")
	}
}

// TestBaselinesHonorDeadContext pins the fast path of every baseline: a
// context that is already cancelled stops the expansion loop on its first
// check, returning the starting community with the context error wrapped.
func TestBaselinesHonorDeadContext(t *testing.T) {
	g, m := cancelRing(t, 60, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		run  func() ([]graph.NodeID, error)
	}{
		{"acq", func() ([]graph.NodeID, error) { return ACQ(ctx, g, 0, 3, sea.KCore) }},
		{"locatc", func() ([]graph.NodeID, error) { return LocATC(ctx, g, 0, 3, sea.KCore) }},
		{"vac", func() ([]graph.NodeID, error) { return VAC(ctx, g, m, 0, 3, sea.KCore) }},
		{"evac", func() ([]graph.NodeID, error) { return EVAC(ctx, g, m, 0, 3, sea.KCore, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members, err := tc.run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if len(members) == 0 {
				t.Fatal("dead-context baseline should still return its starting community")
			}
		})
	}
}
