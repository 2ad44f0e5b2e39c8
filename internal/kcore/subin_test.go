package kcore

import (
	"context"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// sampleGraph draws one of the shapes the extraction has to get right:
// dense, sparse, a union of disconnected dense blocks, and any of them with
// node 0 (the query of the test) isolated.
func sampleGraph(rng *rand.Rand, n int) *graph.Graph {
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

// readLog records whose neighbour lists are read.
type readLog struct {
	graph.Adjacency
	read map[graph.NodeID]bool
}

func (l readLog) NeighborsInto(buf *[]graph.NodeID, v graph.NodeID) []graph.NodeID {
	l.read[v] = true
	return l.Adjacency.NeighborsInto(buf, v)
}

// TestMaximalSubInMatchesScratch: for a sample that grows batch by batch,
// the extraction over the sample's membership reads only what q reaches and
// is the maximal connected k-core of the induced subgraph computed from
// nothing: the same members in the same order, alive, and the degrees NewSub
// starts from.
func TestMaximalSubInMatchesScratch(t *testing.T) {
	w := ws.Get()
	defer w.Release()
	var sub graph.SubScratch
	var in graph.NodeSet
	for seed := int64(0); seed < 480; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(120)
		large := seed%12 == 0
		if large {
			n = 2500 + rng.Intn(2500) // room for batches of thousands
		}
		g := sampleGraph(rng, n)
		k := 1 + int(seed%6)
		const q = graph.NodeID(0)

		order := rng.Perm(n)
		if i := slices.Index(order, int(q)); rng.Intn(4) > 0 {
			order[0], order[i] = order[i], order[0] // as in SEA: q is drawn first
		}
		in.Reset(n)
		var sample, want []graph.NodeID
		for len(sample) < n {
			batch := 1
			switch r := rng.Intn(3); {
			case large && r == 0:
				batch = 1000 + rng.Intn(2000)
			case large || r == 1:
				batch = 10 + rng.Intn(80)
			}
			for _, v := range order[len(sample) : len(sample)+min(batch, n-len(sample))] {
				sample = append(sample, graph.NodeID(v))
				in.Add(graph.NodeID(v))
			}

			ind, orig := graph.InducedStructureOf(g, sample, &sub)
			want, may := want[:0], map[graph.NodeID]bool{}
			if qIn := graph.NodeID(slices.Index(orig, q)); qIn >= 0 {
				for _, v := range MaximalConnectedKCoreInto(nil, ind, qIn, k, w) {
					want = append(want, orig[v])
				}
				// It reads q, R — the nodes of degree ≥ k in G[S] that q
				// reaches through such nodes — and their neighbours in S.
				may[q] = true
				for r, i := []graph.NodeID{qIn}, 0; i < len(r); i++ {
					for _, u := range ind.Neighbors(r[i]) {
						if ind.Degree(r[i]) >= k && !may[orig[u]] {
							may[orig[u]] = true
							r = append(r, u)
						}
					}
				}
			}
			lists := readLog{g, map[graph.NodeID]bool{}}
			s := MaximalSubIn(context.Background(), lists, q, k, &in, w)
			if !maps.Equal(lists.read, may) {
				t.Fatalf("seed %d k %d |S| %d: read the lists of %d nodes, q reaches %d", seed, k, len(sample), len(lists.read), len(may))
			}
			if s == nil {
				if len(want) > 0 {
					t.Fatalf("seed %d k %d |S| %d: no core around q, from scratch %v", seed, k, len(sample), want)
				}
				continue
			}
			ref, err := NewSub(g, q, k, want)
			if err != nil {
				t.Fatal(err)
			}
			alive := 0 // over all of g: nothing an earlier extraction left is alive
			for v := range graph.NodeID(n) {
				if s.Alive(v) {
					if alive++; s.deg[v] != ref.deg[v] {
						t.Fatalf("seed %d k %d |S| %d: node %d starts at degree %d, NewSub's %d", seed, k, len(sample), v, s.deg[v], ref.deg[v])
					}
				}
			}
			if got := s.Universe(); !slices.Equal(got, want) || s.Size() != len(want) || alive != len(want) || !slices.Equal(s.Members(nil), want) {
				t.Fatalf("seed %d k %d |S| %d: universe %v (size %d, %d alive), from scratch %v", seed, k, len(sample), got, s.Size(), alive, want)
			}
		}
	}
}

// TestReachStopsOnCancel: the reach can span a whole core, so it checks ctx
// between blocks of nodes. Here it would span all of a 2 000-node ring that
// is one 8-core. A cancelled round returns nil and leaves the workspace
// ready for the next one.
func TestReachStopsOnCancel(t *testing.T) {
	const n = 2000
	b := graph.NewBuilder(n, 0)
	var in graph.NodeSet
	in.Reset(n)
	for v := range n {
		for j := 1; j <= 4; j++ {
			b.AddEdge(graph.NodeID(v), graph.NodeID((v+j)%n))
		}
		in.Add(graph.NodeID(v))
	}
	g := b.MustBuild()
	w := ws.Get()
	defer w.Release()
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if s := MaximalSubIn(ctx, g, 0, 6, &in, w); s != nil {
		t.Fatalf("cancelled extraction returned %d nodes", s.Size())
	}
	if s := MaximalSubIn(t.Context(), g, 0, 6, &in, w); s == nil || s.Size() != n {
		t.Fatal("the ring is one 8-core")
	}
}
