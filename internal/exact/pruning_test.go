package exact

// Focused tests on the individual pruning strategies of §IV, beyond the
// end-to-end equivalence checked in exact_test.go.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/kcore"
)

// denseRandom builds a dense random graph whose 2-core spans most nodes, so
// the search tree is non-trivial.
func denseRandom(seed int64, n int) (*graph.Graph, []float64, graph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.MustBuild()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = rng.Float64()
	}
	q := graph.NodeID(rng.Intn(n))
	dist[q] = 0
	return g, dist, q
}

func TestP3NeverChangesTheOptimum(t *testing.T) {
	f := func(seed int64) bool {
		g, dist, q := denseRandom(seed, 9)
		with, err1 := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true, PruneUnnecessary: true, PruneUnpromising: true})
		without, err2 := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true, PruneUnnecessary: true})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(with.Delta-without.Delta) < 1e-9 &&
			with.Stats.States <= without.Stats.States
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestP2NeverChangesTheOptimum(t *testing.T) {
	f := func(seed int64) bool {
		g, dist, q := denseRandom(seed, 9)
		with, err1 := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true, PruneUnnecessary: true})
		without, err2 := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true})
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return math.Abs(with.Delta-without.Delta) < 1e-9 &&
			with.Stats.States <= without.Stats.States
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestP1CutsDuplicateStatesMassively(t *testing.T) {
	// The paper reports P1 pruning 99.8% of states on Facebook. On a dense
	// random graph the pruned search must explore far fewer states than the
	// unpruned one.
	g, dist, q := denseRandom(3, 10)
	pruned, err := SearchContext(context.Background(), g, q, 2, dist, Config{PruneDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := SearchContext(context.Background(), g, q, 2, dist, Config{MaxStates: 2_000_000})
	if err != nil && err != ErrBudgetExhausted {
		t.Fatal(err)
	}
	if pruned.Stats.States*4 > unpruned.Stats.States {
		t.Errorf("P1 explored %d states vs %d unpruned — expected a much larger cut",
			pruned.Stats.States, unpruned.Stats.States)
	}
}

func TestPrunedCountersIncrement(t *testing.T) {
	g, dist, q := denseRandom(7, 11)
	res, err := SearchContext(context.Background(), g, q, 2, dist, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At least one of the pruning counters must have fired on a dense graph.
	if res.Stats.PrunedDuplicate == 0 && res.Stats.PrunedUnpromise == 0 {
		t.Errorf("no pruning recorded: %+v", res.Stats)
	}
}

// TestLowerBoundIsSound checks the Theorem-6 bound — the mean of the k
// smallest f(·,q) in the state — against the optimum at the root, whose
// alive set is q's maximal connected k-core: the bound can never exceed the
// δ of any connected k-core in the state. Every pruning configuration must
// find that optimum, BruteForce's δ bit for bit on quantized f, where ties
// are common and P3 reads its k smallest off a tie-broken order.
func TestLowerBoundIsSound(t *testing.T) {
	const k = 2
	f := func(seed int64, tieHeavy bool) bool {
		g, dist, q := denseRandom(seed, 9)
		tol := 1e-9
		if tieHeavy {
			quantize(dist, 4)
			tol = 0
		}
		want, err := BruteForce(g, q, k, dist)
		if err != nil {
			return errors.Is(err, ErrNoCommunity)
		}
		// The root bound by hand.
		var root []float64
		for _, v := range kcore.MaximalConnectedKCore(g, q, k) {
			if v != q {
				root = append(root, dist[v])
			}
		}
		slices.Sort(root)
		bound := 0.0
		for _, x := range root[:k] {
			bound += x
		}
		bound /= k
		if bound > want.Delta+1e-9 {
			return false
		}
		for _, cfg := range allConfigs() {
			res, err := SearchContext(context.Background(), g, q, k, dist, cfg)
			if err != nil || math.Abs(res.Delta-want.Delta) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
