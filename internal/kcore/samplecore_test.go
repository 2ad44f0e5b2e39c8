package kcore

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// sampleCoreGraph draws one of the shapes the maintained core has to get
// right: dense, sparse, a union of disconnected dense blocks, and any of
// them with node 0 (the query of the test) isolated.
func sampleCoreGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n, 0)
	first := 0
	if rng.Intn(6) == 0 {
		first = 1 // q = 0 keeps no edge
	}
	pick := func(lo, hi int) graph.NodeID { return graph.NodeID(lo + rng.Intn(hi-lo)) }
	switch shape := rng.Intn(3); {
	case shape < 2 || n < 12:
		perNode := []float64{1.2, 7}[shape%2] * (0.5 + rng.Float64())
		for i := 0; i < int(perNode*float64(n)); i++ {
			b.AddEdge(pick(first, n), pick(first, n))
		}
	default:
		// Blocks with no edge between them, each dense inside.
		blocks := 2 + rng.Intn(4)
		for c := 0; c < blocks; c++ {
			lo, hi := first+(n-first)*c/blocks, first+(n-first)*(c+1)/blocks
			for i := 0; i < 5*(hi-lo); i++ {
				b.AddEdge(pick(lo, hi), pick(lo, hi))
			}
		}
	}
	return b.MustBuild()
}

// TestSampleCoreMatchesScratch: after every insertion the maintained core is
// the k-core of the induced subgraph computed from nothing, and q's component
// comes in the order the extraction on the induced subgraph yields.
func TestSampleCoreMatchesScratch(t *testing.T) {
	w := ws.Get()
	defer w.Release()
	var sub graph.SubScratch
	for seed := int64(0); seed < 480; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(120)
		large := seed%12 == 0
		if large {
			n = 2500 + rng.Intn(2500) // room for batches of thousands
		}
		g := sampleCoreGraph(rng, n)
		k := 1 + int(seed%6)
		const q = graph.NodeID(0)

		order := rng.Perm(n)
		if i := slices.Index(order, int(q)); rng.Intn(4) > 0 {
			order[0], order[i] = order[i], order[0] // as in SEA: q is drawn first
		}
		core := NewSampleCore(g, k, w)
		var sample, got, want []graph.NodeID
		for len(sample) < n {
			batch := 1
			switch r := rng.Intn(3); {
			case large && r == 0:
				batch = 1000 + rng.Intn(2000)
			case large || r == 1:
				batch = 10 + rng.Intn(80)
			}
			batch = min(batch, n-len(sample))
			from := len(sample)
			for _, v := range order[from : from+batch] {
				sample = append(sample, graph.NodeID(v))
			}
			if err := core.Insert(context.Background(), sample[from:]); err != nil {
				t.Fatal(err)
			}

			ind, orig := graph.InducedStructureOf(g, sample, &sub)
			coreness := Decompose(ind)
			qIn := graph.NodeID(-1)
			for i, v := range orig {
				if has := w.SampleCore.Core.Has(v); has != (int(coreness[i]) >= k) {
					t.Fatalf("seed %d k %d |S| %d: node %d in maintained core: %v, coreness in G[S]: %d", seed, k, len(sample), v, has, coreness[i])
				}
				if v == q {
					qIn = graph.NodeID(i)
				}
			}
			want = want[:0]
			if qIn >= 0 {
				for _, v := range MaximalConnectedKCoreInto(nil, ind, qIn, k, w) {
					want = append(want, orig[v])
				}
			}
			got = core.ComponentInto(got[:0], q)
			if (got == nil) != (len(want) == 0) || !slices.Equal(got, want) {
				t.Fatalf("seed %d k %d |S| %d: component of q %v, from scratch %v", seed, k, len(sample), got, want)
			}
			for i, v := range order {
				if w.Sampled.Has(graph.NodeID(v)) != (i < len(sample)) {
					t.Fatalf("seed %d |S| %d: sampled(%d) = %v", seed, len(sample), v, i >= len(sample))
				}
			}
		}
	}
}
