package sampling

// The controls of the sampling ablations: the alternatives BuildGqInto and
// WeightedSampleInto replaced, kept beside the benchmarks that measure them
// against each other. rouletteSample is also the reference sampler
// statistical_test.go checks WeightedSampleInto's inclusion frequencies
// against.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/ws"
)

// buildGqBFS is the plain hop-order control of the frontier ablation: the
// contract of BuildGqInto (allocating its result), but breadth-first instead
// of best-first.
func buildGqBFS(g graph.Adjacency, q graph.NodeID, minSize int) []graph.NodeID {
	if minSize < 1 {
		minSize = 1
	}
	out := make([]graph.NodeID, 0, minSize)
	seen := make([]bool, g.NumNodes())
	seen[q] = true
	out = append(out, q)
	var nbr []graph.NodeID
	for i := 0; i < len(out) && len(out) < minSize; i++ {
		for _, u := range g.NeighborsInto(&nbr, out[i]) {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
				if len(out) >= minSize {
					break
				}
			}
		}
	}
	return out
}

// rouletteSample is the naive with-rejection control of the sampling
// ablation: repeated roulette-wheel draws, rejecting duplicates. The contract
// of WeightedSampleInto, allocating its result.
func rouletteSample(population []graph.NodeID, weights []float64, size int, q graph.NodeID, rng *rand.Rand) []graph.NodeID {
	if size >= len(population) {
		return append([]graph.NodeID(nil), population...)
	}
	if size < 1 {
		size = 1
	}
	total := 0.0
	maxID := q
	for i, v := range population {
		if weights[i] > 0 {
			total += weights[i]
		}
		if v > maxID {
			maxID = v
		}
	}
	w := ws.Get()
	defer w.Release()
	chosen := &w.Member
	chosen.Reset(int(maxID) + 1)
	out := make([]graph.NodeID, 0, size)
	add := func(v graph.NodeID) {
		if chosen.Add(v) {
			out = append(out, v)
		}
	}
	if q >= 0 {
		add(q)
	}
	attempts := 0
	maxAttempts := 50 * size
	for len(out) < size && attempts < maxAttempts && total > 0 {
		attempts++
		r := rng.Float64() * total
		acc := 0.0
		for i, v := range population {
			if weights[i] <= 0 {
				continue
			}
			acc += weights[i]
			if r <= acc {
				add(v)
				break
			}
		}
	}
	// Fill deterministically if rejection stalls.
	for _, v := range population {
		if len(out) >= size {
			break
		}
		add(v)
	}
	return out
}

func TestBuildGqBFS(t *testing.T) {
	g := lineGraph(10)
	gq := buildGqBFS(g, 0, 4)
	if len(gq) != 4 {
		t.Fatalf("|Gq| = %d, want 4", len(gq))
	}
	for i, v := range gq {
		if v != graph.NodeID(i) {
			t.Errorf("BFS order wrong: %v", gq)
		}
	}
}

func TestRouletteSampleContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pop := make([]graph.NodeID, 50)
	w := make([]float64, 50)
	for i := range pop {
		pop[i] = graph.NodeID(i)
		w[i] = 1
	}
	s := rouletteSample(pop, w, 10, 5, rng)
	if len(s) != 10 {
		t.Fatalf("|S| = %d, want 10", len(s))
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate in roulette sample")
		}
		seen[v] = true
	}
	if !seen[5] {
		t.Error("query node missing")
	}
}

var (
	ablationOnce sync.Once
	ablationG    *graph.Graph
	ablationQ    graph.NodeID
	ablationDist []float64
)

// ablationSetup generates the 2 000-node graph the repository's root
// benchmarks run on, with its query node and f(·,q).
func ablationSetup(b *testing.B) {
	b.Helper()
	ablationOnce.Do(func() {
		d, err := dataset.Generate(dataset.Spec{
			Name: "bench", Nodes: 2000, MinCommunity: 16, MaxCommunity: 40,
			IntraDegree: 10, InterDegree: 0.8,
			TokensPerNode: 4, PoolSize: 6, Vocab: 160, NoiseProb: 0.15,
			NumDim: 2, NumSigma: 0.06, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		m, err := attr.NewMetric(d.Graph, 0.5)
		if err != nil {
			panic(err)
		}
		ablationG = d.Graph
		ablationQ = d.QueryNodes(1, 6, 3)[0]
		ablationDist = m.QueryDist(ablationQ)
	})
}

// BenchmarkAblationGqFrontier compares best-first against plain-BFS Gq
// construction.
func BenchmarkAblationGqFrontier(b *testing.B) {
	ablationSetup(b)
	const size = 800
	w := ws.Get()
	defer w.Release()
	b.Run("best-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildGqInto(nil, ablationG, ablationQ, ablationDist, size, w)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildGqBFS(ablationG, ablationQ, size)
		}
	})
}

// BenchmarkAblationSampling compares exponential-keys weighted sampling
// against roulette-wheel rejection sampling.
func BenchmarkAblationSampling(b *testing.B) {
	ablationSetup(b)
	w := ws.Get()
	defer w.Release()
	gq := BuildGqInto(nil, ablationG, ablationQ, ablationDist, 800, w)
	probs := ProbabilitiesInto(nil, gq, ablationDist)
	b.Run("exponential-keys", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			WeightedSampleInto(nil, gq, probs, 160, ablationQ, rng, w)
		}
	})
	b.Run("roulette", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			rouletteSample(gq, probs, 160, ablationQ, rng)
		}
	})
}
