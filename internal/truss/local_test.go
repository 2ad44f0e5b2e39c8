package truss

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// wholeIn is MaximalSubIn as it was before the reach step, the reference the
// local extraction is held to: it indexes all of G[in], counts every
// triangle there, peels and keeps q's component, on a scratch of its own.
func wholeIn(g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet) *Sub {
	sc := new(ws.TrussScratch)
	clean(sc, g.NumNodes())
	for v := range g.NumNodes() {
		if in.Has(graph.NodeID(v)) {
			sc.Nodes = append(sc.Nodes, graph.NodeID(v))
		}
	}
	var nbr []graph.NodeID
	s := new(Sub)
	if !s.build(g, q, k, sc.Nodes, in, &nbr, sc) {
		return nil
	}
	return s
}

// localGraph draws one of five shapes: dense, sparse, planted near-cliques,
// two of those side by side with no edge between them, and any of them with
// isolated nodes appended (q is then often one of those).
func localGraph(rng *rand.Rand, shape int) *graph.Graph {
	var edges [][2]int
	n := 0
	addRandom := func(nodes, m int) {
		for ; m > 0; m-- {
			edges = append(edges, [2]int{n + rng.Intn(nodes), n + rng.Intn(nodes)})
		}
		n += nodes
	}
	addPlanted := func() {
		p := plantedGraph(rng)
		for v := range p.NumNodes() {
			for _, u := range p.Neighbors(graph.NodeID(v)) {
				edges = append(edges, [2]int{n + v, n + int(u)})
			}
		}
		n += p.NumNodes()
	}
	switch shape {
	case 0: // dense
		nodes := 8 + rng.Intn(30)
		addRandom(nodes, nodes*nodes*(2+rng.Intn(5))/20)
	case 1: // sparse
		nodes := 20 + rng.Intn(100)
		addRandom(nodes, nodes*(1+rng.Intn(3)))
	case 2:
		addPlanted()
	case 3: // disconnected
		addPlanted()
		nodes := 8 + rng.Intn(20)
		addRandom(nodes, nodes*nodes/4)
	default: // isolated nodes
		addPlanted()
		n += 1 + rng.Intn(5)
	}
	b := graph.NewBuilder(n, 0)
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return b.MustBuild()
}

// sameSub fails unless two maintainers agree on the member order, the size,
// Alive for every node, and the alive edge set with each edge's support,
// matched by endpoints.
func sameSub(t *testing.T, at string, got, want *Sub, n int) {
	t.Helper()
	if !slices.Equal(got.universe, want.universe) {
		t.Fatalf("%s: universe %v, whole-in %v", at, got.universe, want.universe)
	}
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, whole-in %d", at, got.Size(), want.Size())
	}
	for v := range n {
		if a, b := got.Alive(graph.NodeID(v)), want.Alive(graph.NodeID(v)); a != b {
			t.Fatalf("%s: Alive(%d) = %v, whole-in %v", at, v, a, b)
		}
	}
	alive := 0
	for e, a := range got.edgeAlive {
		if !a {
			continue
		}
		alive++
		u, v := got.ix.U[e], got.ix.V[e]
		we, ok := want.ix.EdgeID(u, v)
		if !ok || !want.edgeAlive[we] {
			t.Fatalf("%s: edge (%d,%d) alive, dead in the whole-in build", at, u, v)
		}
		if got.sup[e] != want.sup[we] {
			t.Fatalf("%s: sup(%d,%d) = %d, whole-in %d", at, u, v, got.sup[e], want.sup[we])
		}
	}
	for _, a := range want.edgeAlive {
		if a {
			alive--
		}
	}
	if alive != 0 {
		t.Fatalf("%s: %d fewer alive edges than the whole-in build", at, -alive)
	}
}

// TestLocalExtractionMatchesFull holds MaximalSubIn, which indexes only what
// q reaches over edges closing k−2 triangles in G[in], to the build over all
// of G[in]: the same nil answer, universe order, sizes, Alive flags, alive
// edges and supports, and the same removed lists through a random
// RemoveCascade/Restore script. One pooled workspace serves every case, so a
// per-node entry left over from an earlier graph or extraction fails it too.
func TestLocalExtractionMatchesFull(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 80
	}
	w := ws.Get()
	defer w.Release()
	var in graph.NodeSet
	found, smaller := 0, 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := localGraph(rng, seed%5)
		n := g.NumNodes()
		for k := 2; k <= 7; k++ {
			q := graph.NodeID(rng.Intn(n))
			if seed%5 == 4 && rng.Intn(3) == 0 {
				q = graph.NodeID(n - 1) // isolated
			}
			in.Reset(n)
			keep := 1.0
			if rng.Intn(3) > 0 {
				keep = 0.5 + rng.Float64()/2
			}
			for v := range n {
				if rng.Float64() < keep || (graph.NodeID(v) == q && rng.Intn(10) > 0) {
					in.Add(graph.NodeID(v))
				}
			}
			at := func(step string) string {
				return fmt.Sprintf("seed %d k %d q %d %s", seed, k, q, step)
			}
			want := wholeIn(g, q, k, &in)
			got, _ := MaximalSubIn(t.Context(), g, q, k, &in, math.MaxInt, w)
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: local nil=%v, whole-in nil=%v", at("built"), got == nil, want == nil)
			}
			if got == nil {
				continue
			}
			found++
			if len(w.Truss.Nodes) < in.Len() {
				smaller++
			}
			sameSub(t, at("built"), got, want, n)

			open := 0
			for step := 0; step < 24; step++ {
				if open > 0 && rng.Intn(3) == 0 {
					got.Restore()
					want.Restore()
					open--
				} else {
					v := graph.NodeID(rng.Intn(n)) // dead nodes, outsiders and q included
					if rng.Intn(2) == 0 {
						v = want.universe[rng.Intn(len(want.universe))]
					}
					r, a := got.RemoveCascade(v)
					wr, wa := want.RemoveCascade(v)
					if a != wa || !slices.Equal(r, wr) {
						t.Fatalf("%s: RemoveCascade(%d) = %v,%v, whole-in %v,%v", at("script"), v, r, a, wr, wa)
					}
					open++
				}
				sameSub(t, at(fmt.Sprint("step ", step)), got, want, n)
			}
			for ; open > 0; open-- {
				got.Restore()
				want.Restore()
			}
			sameSub(t, at("unwound"), got, want, n)
		}
	}
	t.Logf("%d of %d cases had a k-truss; %d indexed fewer nodes than in holds", found, 6*seeds, smaller)
	if found < seeds || smaller < found/2 {
		t.Fatalf("%d cases with a k-truss, %d of them local: the generator no longer exercises the reach", found, smaller)
	}
}

// TestReachStopsOnCancel: the reach is the one loop of an extraction that
// can span a whole core, so it checks ctx between blocks of nodes. Here it
// would span all of a 2 000-node ring that is one 5-truss.
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
	if s, closed := MaximalSubIn(ctx, g, 0, 5, &in, math.MaxInt, w); s != nil || closed {
		t.Fatalf("cancelled extraction returned %v (closed %v)", s, closed)
	}
	if s, _ := MaximalSubIn(t.Context(), g, 0, 5, &in, math.MaxInt, w); s == nil || s.Size() != n {
		t.Fatal("the ring is one 5-truss")
	}
}
