package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attr"
	"repro/internal/graph"
	"repro/internal/kcore"
)

// figure3Graph reproduces the running example of Figures 2(c)/3: the
// connected 2-core over {v1..v6} with q=v5 and the distances listed at the
// top of Figure 3. IDs: v1..v6 → 0..5, q = 4.
func figure3Graph(t testing.TB) (*graph.Graph, []float64, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(6, 0)
	// Figure 2(c): a 2-core on six nodes. Ring plus chords so that deleting
	// any single non-cut node keeps a 2-core.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := b.MustBuild()
	// f(v1..v6, q=v5): 0.7, 0.6, 0.6, 0.5, 0 (q), 0.3.
	dist := []float64{0.7, 0.6, 0.6, 0.5, 0, 0.3}
	return g, dist, 4
}

func TestSearchMatchesBruteForceOnFigure3(t *testing.T) {
	g, dist, q := figure3Graph(t)
	want, err := BruteForce(g, q, 2, dist)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range allConfigs() {
		got, err := SearchContext(context.Background(), g, q, 2, dist, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if math.Abs(got.Delta-want.Delta) > 1e-12 {
			t.Errorf("cfg %+v: δ = %v, want %v (community %v vs %v)",
				cfg, got.Delta, want.Delta, got.Community, want.Community)
		}
	}
}

// allConfigs enumerates every on/off combination of P1, P2 and P3. Without
// P1 the search revisits duplicate states, so those configurations carry a
// budget against the duplicate explosion.
func allConfigs() []Config {
	var grid []Config
	for mask := range 8 {
		cfg := Config{PruneDuplicates: mask&1 != 0, PruneUnnecessary: mask&2 != 0, PruneUnpromising: mask&4 != 0}
		if !cfg.PruneDuplicates {
			cfg.MaxStates = 200000
		}
		grid = append(grid, cfg)
	}
	return grid
}

// quantize rounds every f(·,q) down to a multiple of 1/levels, so a handful
// of values repeat across the graph. Quarters (levels 4) sum exactly, so a
// δ is the correctly rounded mean of its members and two communities of
// equal mean have bit-equal δ.
func quantize(dist []float64, levels int) {
	for i, x := range dist {
		dist[i] = math.Floor(x*float64(levels)) / float64(levels)
	}
}

func TestSearchRootOnlyWhenNoBetterSubstate(t *testing.T) {
	// A 4-clique with k=3: the only connected 3-core is the clique itself.
	b := graph.NewBuilder(4, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.MustBuild()
	dist := []float64{0, 0.9, 0.5, 0.2}
	got, err := SearchContext(context.Background(), g, 0, 3, dist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Community) != 4 {
		t.Errorf("community = %v, want whole clique", got.Community)
	}
	if want := (0.9 + 0.5 + 0.2) / 3; math.Abs(got.Delta-want) > 1e-12 {
		t.Errorf("δ = %v, want %v", got.Delta, want)
	}
}

func TestSearchNoCommunity(t *testing.T) {
	g, dist, _ := figure3Graph(t)
	if _, err := SearchContext(context.Background(), g, 0, 5, dist, DefaultConfig()); !errors.Is(err, ErrNoCommunity) {
		t.Errorf("err = %v, want ErrNoCommunity", err)
	}
}

func TestSearchRejectsBadK(t *testing.T) {
	g, dist, q := figure3Graph(t)
	if _, err := SearchContext(context.Background(), g, q, 0, dist, DefaultConfig()); err == nil {
		t.Error("accepted k=0")
	}
}

func TestPruningReducesStates(t *testing.T) {
	g, dist, q := figure3Graph(t)
	full, err := SearchContext(context.Background(), g, q, 2, dist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p1only, err := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.States > p1only.Stats.States {
		t.Errorf("all prunings visited %d states, P1-only %d", full.Stats.States, p1only.Stats.States)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	g, dist, q := figure3Graph(t)
	res, err := SearchContext(context.Background(), g, q, 2, dist, Config{MaxStates: 1})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Community == nil {
		t.Error("budget-exhausted search returned no community")
	}
}

// randomAttributed builds a random connected-ish attributed graph small
// enough for BruteForce.
func randomAttributed(rng *rand.Rand) (*graph.Graph, []float64, graph.NodeID) {
	n := 5 + rng.Intn(7) // ≤ 11 nodes keeps BruteForce fast
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	m := n * (1 + rng.Intn(3))
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.MustBuild()
	q := graph.NodeID(rng.Intn(n))
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = float64(rng.Intn(100)) / 100
	}
	dist[q] = 0
	return g, dist, q
}

// TestPropertySearchMatchesBruteForce holds every pruning configuration to
// BruteForce on random graphs, with f(·,q) in hundredths and quantized to
// four levels, where ties are common and P1's order must break them
// without losing the optimum. On quantized f the δ must be BruteForce's bit
// for bit.
func TestPropertySearchMatchesBruteForce(t *testing.T) {
	f := func(seed int64, tieHeavy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g, dist, q := randomAttributed(rng)
		tol := 1e-9
		if tieHeavy {
			quantize(dist, 4)
			tol = 0
		}
		k := 1 + rng.Intn(3)
		want, errWant := BruteForce(g, q, k, dist)
		for _, cfg := range allConfigs() {
			got, err := SearchContext(context.Background(), g, q, k, dist, cfg)
			if errors.Is(errWant, ErrNoCommunity) {
				if !errors.Is(err, ErrNoCommunity) {
					return false
				}
				continue
			}
			if err != nil && !errors.Is(err, ErrBudgetExhausted) {
				return false
			}
			if errors.Is(err, ErrBudgetExhausted) {
				// Best-effort result: must be valid but may be suboptimal.
				if got.Delta+1e-9 < want.Delta {
					return false
				}
			} else if math.Abs(got.Delta-want.Delta) > tol {
				return false
			}
			// The returned community must be a valid connected k-core with q.
			if !kcore.InKCoreSet(g, got.Community, k) {
				return false
			}
			if attr.Delta(dist, got.Community, q) != got.Delta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	g, dist, q := figure3Graph(t)
	res, err := SearchContext(context.Background(), g, q, 2, dist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.States < 1 || res.Stats.CandidatesScored < 1 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

// TestSearchContextCancellation proves the acceptance criterion for the
// exact method: a context cancelled mid-search returns promptly (well under
// 50ms) with the best community found so far and an error wrapping the
// context's error — symmetric with the ErrBudgetExhausted contract.
func TestSearchContextCancellation(t *testing.T) {
	// A complete graph on 40 nodes with distinct distances: without pruning
	// the enumeration tree has ~2^39 states, so the search cannot finish on
	// its own within any test budget.
	const n = 40
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.MustBuild()
	rng := rand.New(rand.NewSource(7))
	dist := make([]float64, n)
	for i := 1; i < n; i++ {
		dist[i] = rng.Float64()
	}

	ctx, cancel := context.WithCancel(context.Background())
	type answer struct {
		res Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := SearchContext(ctx, g, 0, 3, dist, Config{}) // no pruning, no budget
		done <- answer{res, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the enumeration get going
	cancel()
	t0 := time.Now()
	var got answer
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled exact search did not return")
	}
	if el := time.Since(t0); el > 50*time.Millisecond {
		t.Fatalf("cancelled search took %v to return, want < 50ms", el)
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("want error wrapping context.Canceled, got %v", got.err)
	}
	if len(got.res.Community) == 0 {
		t.Fatal("interrupted search should carry the best community found so far")
	}
	if got.res.Stats.States == 0 {
		t.Fatal("search did not explore any states before cancellation")
	}
}

// TestSearchContextAlreadyCancelled: a cancelled ctx never comes back as
// ErrNoCommunity, which callers take for a definitive answer. q's core here
// is a 300-node ring in which each node links to the four on either side,
// large enough that a reach polling ctx every 256 nodes would notice the
// cancellation; the extraction runs to its end and the enumeration reports
// the interruption.
func TestSearchContextAlreadyCancelled(t *testing.T) {
	const n = 300
	b := graph.NewBuilder(n, 0)
	for v := range n {
		for j := 1; j <= 4; j++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID((v+j)%n))
		}
	}
	g := b.MustBuild()
	dist := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for v := 1; v < n; v++ {
		dist[v] = rng.Float64()
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	// The budget only keeps a search that ignores ctx from running forever.
	_, err := SearchContext(ctx, g, 0, 6, dist, Config{MaxStates: 1 << 20})
	if errors.Is(err, ErrNoCommunity) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v, want an error wrapping context.Canceled", err)
	}
}
