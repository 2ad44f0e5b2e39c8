package kcore

import (
	"context"
	"fmt"
	"maps"
	"math"
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

// oracleMaximal is q's maximal connected k-core found the whole-graph way,
// independently of the walk from q under test: Decompose's coreness (held to
// repeated peeling by TestDecomposeAgainstNaive), then a BFS from q over the
// nodes of coreness at least k, with neighbours in g's order. Nil when q is
// in no k-core.
func oracleMaximal(g *graph.Graph, q graph.NodeID, k int) []graph.NodeID {
	core := Decompose(g)
	if int(core[q]) < k {
		return nil
	}
	seen := map[graph.NodeID]bool{q: true}
	members := []graph.NodeID{q}
	for i := 0; i < len(members); i++ {
		for _, u := range g.Neighbors(members[i]) {
			if int(core[u]) >= k && !seen[u] {
				seen[u] = true
				members = append(members, u)
			}
		}
	}
	return members
}

// mayRead returns, by orig's IDs (nil: h's own), the nodes whose lists an
// extraction over h may read: q, R — the nodes of degree at least k in h
// that q reaches through such nodes — and their neighbours.
func mayRead(h *graph.Graph, q graph.NodeID, k int, orig []graph.NodeID) map[graph.NodeID]bool {
	id := func(v graph.NodeID) graph.NodeID {
		if orig == nil {
			return v
		}
		return orig[v]
	}
	may := map[graph.NodeID]bool{id(q): true}
	for r, i := []graph.NodeID{q}, 0; i < len(r); i++ {
		for _, u := range h.Neighbors(r[i]) {
			if h.Degree(r[i]) >= k && !may[id(u)] {
				may[id(u)] = true
				r = append(r, u)
			}
		}
	}
	return may
}

// checkExtraction fails unless MaximalSubIn over in (nil: all of g) reads
// the lists of exactly the nodes of may and builds the maintainer over want
// (nil: none): the same members in the same order, nothing else alive over
// all of g, and the degrees NewSub starts from.
func checkExtraction(t *testing.T, at string, g *graph.Graph, q graph.NodeID, k int, in *graph.NodeSet, want []graph.NodeID, may map[graph.NodeID]bool, w *ws.Workspace) {
	t.Helper()
	lists := readLog{g, map[graph.NodeID]bool{}}
	s, closed := MaximalSubIn(context.Background(), lists, q, k, in, math.MaxInt, w)
	if !closed {
		t.Fatalf("%s: an unlimited walk did not close", at)
	}
	if !maps.Equal(lists.read, may) {
		t.Fatalf("%s: read the lists of %d nodes, q reaches %d", at, len(lists.read), len(may))
	}
	if s == nil {
		if len(want) > 0 {
			t.Fatalf("%s: no core around q, the oracle's %v", at, want)
		}
		return
	}
	if len(want) == 0 {
		t.Fatalf("%s: a core of %d nodes around q, none in the oracle", at, s.Size())
	}
	ref, err := NewSub(g, q, k, want)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	alive := 0 // over all of g: nothing an earlier extraction left is alive
	for v := range graph.NodeID(g.NumNodes()) {
		if s.Alive(v) {
			if alive++; s.deg[v] != ref.deg[v] {
				t.Fatalf("%s: node %d starts at degree %d, NewSub's %d", at, v, s.deg[v], ref.deg[v])
			}
		}
	}
	if got := s.Universe(); !slices.Equal(got, want) || s.Size() != len(want) || alive != len(want) || !slices.Equal(s.Members(nil), want) {
		t.Fatalf("%s: universe %v (size %d, %d alive), the oracle's %v", at, got, s.Size(), alive, want)
	}
}

// TestMaximalSubInMatchesScratch: for a sample that grows batch by batch,
// the extraction over the sample's membership reads only what q reaches and
// is the oracle's maximal connected k-core of the induced subgraph; and
// over all of g (a nil set), afterwards on the same workspace, it and
// MaximalConnectedKCoreInto are the oracle's over g.
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
				for _, v := range oracleMaximal(ind, qIn, k) {
					want = append(want, orig[v])
				}
				may = mayRead(ind, qIn, k, orig)
			}
			checkExtraction(t, fmt.Sprintf("seed %d k %d |S| %d", seed, k, len(sample)), g, q, k, &in, want, may, w)
		}

		at := fmt.Sprintf("seed %d k %d all of g", seed, k)
		want = oracleMaximal(g, q, k)
		may := mayRead(g, q, k, nil)
		checkExtraction(t, at, g, q, k, nil, want, may, w)
		lists := readLog{g, map[graph.NodeID]bool{}}
		if got := MaximalConnectedKCoreInto(nil, lists, q, k, w); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: MaximalConnectedKCoreInto %v, the oracle's %v", at, got, want)
		}
		if !maps.Equal(lists.read, may) {
			t.Fatalf("%s: MaximalConnectedKCoreInto read the lists of %d nodes, q reaches %d", at, len(lists.read), len(may))
		}
	}
}

// TestMaximalSubInOverAllOfG: on the Figure 2 graph, the extraction over all
// of g (a nil set) builds the maintainer over the oracle's maximal connected
// k-core for every query and k, nil where there is none, with q and k as
// given, one workspace throughout.
func TestMaximalSubInOverAllOfG(t *testing.T) {
	g := figure2Graph(t)
	w := new(ws.Workspace)
	cores := 0
	for k := 1; k <= 5; k++ {
		for q := range graph.NodeID(g.NumNodes()) {
			want := oracleMaximal(g, q, k)
			sub, _ := MaximalSubIn(context.Background(), g, q, k, nil, math.MaxInt, w)
			if sub == nil {
				if want != nil {
					t.Fatalf("q %d k %d: nil, the oracle's %v", q, k, want)
				}
				continue
			}
			cores++
			if sub.Query() != q || sub.k != k {
				t.Errorf("q %d k %d: built with q=%d k=%d", q, k, sub.Query(), sub.k)
			}
			if got := sub.Universe(); !slices.Equal(got, want) || sub.Size() != len(want) {
				t.Fatalf("q %d k %d: universe %v (size %d), the oracle's %v", q, k, got, sub.Size(), want)
			}
		}
	}
	// Per k from 1 to 3: 12, 11 and 10 nodes sit in a k-core; none at 4 or 5.
	if cores != 33 {
		t.Errorf("%d (q, k) pairs with a core, want 33", cores)
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
	if s, closed := MaximalSubIn(ctx, g, 0, 6, &in, math.MaxInt, w); s != nil || closed {
		t.Fatalf("cancelled extraction returned %v (closed %v)", s, closed)
	}
	if s, _ := MaximalSubIn(t.Context(), g, 0, 6, &in, math.MaxInt, w); s == nil || s.Size() != n {
		t.Fatal("the ring is one 8-core")
	}
}
