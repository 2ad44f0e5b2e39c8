package mutate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/truss"
)

// randomGraph builds a connected-ish random attributed graph.
func randomGraph(t *testing.T, rng *rand.Rand, n int, p float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, 2)
	for v := 0; v < n; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tag%d", rng.Intn(8)), fmt.Sprintf("tag%d", rng.Intn(8)))
		b.SetNumAttrs(graph.NodeID(v), rng.Float64(), rng.Float64())
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeTrussOf computes the per-edge trussness table from scratch.
func edgeTrussOf(g *graph.Graph) map[Edge]int32 {
	ix, tr := truss.Decompose(g)
	m := make(map[Edge]int32, ix.NumEdges())
	for e := range tr {
		m[EdgeOf(ix.U[e], ix.V[e])] = tr[e]
	}
	return m
}

// edgesOf lists the undirected edges of g.
func edgesOf(g *graph.Graph) []Edge {
	var out []Edge
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if graph.NodeID(v) < u {
				out = append(out, Edge{U: graph.NodeID(v), V: u})
			}
		}
	}
	return out
}

// randomDelta draws a random valid mutation against the current graph.
func randomDelta(rng *rand.Rand, g *graph.Graph) Delta {
	n := g.NumNodes()
	for {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // add a random non-edge
			u := graph.NodeID(rng.Intn(n))
			v := graph.NodeID(rng.Intn(n))
			if u == v || g.HasEdge(u, v) {
				continue
			}
			return AddEdge(u, v)
		case 4, 5, 6: // remove a random edge
			edges := edgesOf(g)
			if len(edges) == 0 {
				continue
			}
			e := edges[rng.Intn(len(edges))]
			return RemoveEdge(e.U, e.V)
		case 7:
			return AddNode([]string{fmt.Sprintf("tag%d", rng.Intn(8))}, []float64{rng.Float64(), rng.Float64()})
		default:
			v := graph.NodeID(rng.Intn(n))
			return SetAttr(v, []string{fmt.Sprintf("tag%d", rng.Intn(8))}, nil)
		}
	}
}

// TestIncrementalMatchesScratch is the tentpole property test: for random
// mutation sequences, the incrementally maintained coreness and trussness
// equal a from-scratch decomposition of the materialized graph after every
// single mutation. The dense legs give the truss scopes pinned boundary edges
// that share triangles with scope edges, which the sparse legs rarely do: a
// peel that decrements a pinned edge passes the sparse legs but not them.
func TestIncrementalMatchesScratch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkIncremental(t, seed, 0.08) })
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("dense/seed%d", seed), func(t *testing.T) { checkIncremental(t, seed, 0.25) })
	}
}

// checkIncremental applies 60 random single-delta sessions to a 60-node
// graph of edge probability p, checking both indexes after each.
func checkIncremental(t *testing.T, seed int64, p float64) {
	rng := rand.New(rand.NewSource(seed))
	g := randomGraph(t, rng, 60, p)
	core := kcore.Decompose(g)
	etruss := edgeTrussOf(g)

	for step := 0; step < 60; step++ {
		d := randomDelta(rng, g)
		sess := NewSession(g, core, etruss)
		if err := sess.Apply(d); err != nil {
			t.Fatalf("step %d: apply %v: %v", step, d, err)
		}
		g = sess.Materialize()
		core = sess.Core()
		etruss = sess.EdgeTruss()

		wantCore := kcore.Decompose(g)
		for v := range wantCore {
			if core[v] != wantCore[v] {
				t.Fatalf("step %d (%s %d-%d): core[%d] = %d, want %d",
					step, d.Op, d.U, d.V, v, core[v], wantCore[v])
			}
		}
		wantTruss := edgeTrussOf(g)
		if len(etruss) != len(wantTruss) {
			t.Fatalf("step %d (%s %d-%d): %d truss entries, want %d",
				step, d.Op, d.U, d.V, len(etruss), len(wantTruss))
		}
		for e, want := range wantTruss {
			if got := etruss[e]; got != want {
				t.Fatalf("step %d (%s %d-%d): truss[%v] = %d, want %d",
					step, d.Op, d.U, d.V, e, got, want)
			}
		}
	}
}

// TestBatchedSessionMatchesScratch applies several deltas through one
// session and checks the indexes and the node-truss projection once at the
// end, the way the Engine uses a Session.
func TestBatchedSessionMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(t, rng, 50, 0.1)
	core := kcore.Decompose(g)
	etruss := edgeTrussOf(g)
	oldNT := nodeTrussOf(g, len(core))

	sess := NewSession(g, core, etruss)
	cur := g
	for i := 0; i < 25; i++ {
		d := randomDelta(rng, cur)
		if err := sess.Apply(d); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		cur = sess.Materialize()
	}
	got := sess.Materialize()
	wantCore := kcore.Decompose(got)
	newCore := sess.Core()
	for v := range wantCore {
		if newCore[v] != wantCore[v] {
			t.Fatalf("core[%d] = %d, want %d", v, newCore[v], wantCore[v])
		}
	}
	wantNT := nodeTrussOf(got, got.NumNodes())
	gotNT := sess.NodeTruss(oldNT)
	for v := range wantNT {
		if gotNT[v] != wantNT[v] {
			t.Fatalf("nodeTruss[%d] = %d, want %d", v, gotNT[v], wantNT[v])
		}
	}
}

func nodeTrussOf(g *graph.Graph, n int) []int32 {
	ix, tr := truss.Decompose(g)
	nt := make([]int32, n)
	for e := range tr {
		if t := tr[e]; t > 0 {
			if u := ix.U[e]; t > nt[u] {
				nt[u] = t
			}
			if v := ix.V[e]; t > nt[v] {
				nt[v] = t
			}
		}
	}
	return nt
}

// TestSessionRollback proves a failed batch leaves the adopted truss table
// untouched. The preflight rejects the batch whole, so the session applies
// none of it; and a delta the session itself rejects leaves the table as the
// deltas before it left it.
func TestSessionRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(t, rng, 30, 0.15)
	core := kcore.Decompose(g)
	etruss := edgeTrussOf(g)
	want := copyTruss(etruss)
	edges := edgesOf(g)
	batch := []Delta{RemoveEdge(edges[0].U, edges[0].V), AddEdge(5, 5)}

	pf := NewPreflight(g)
	if err := pf.Group(batch); err == nil {
		t.Fatal("preflight admitted a batch with a self-loop")
	}
	sess := NewSession(g, core, etruss)
	for _, grp := range pf.Admitted() {
		for _, d := range grp {
			if err := sess.Apply(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	sameTruss(t, "after a rejected batch", etruss, want)

	if err := sess.Apply(batch[0]); err != nil {
		t.Fatal(err)
	}
	after := copyTruss(etruss)
	if err := sess.Apply(batch[1]); err == nil {
		t.Fatal("self-loop accepted")
	}
	sameTruss(t, "after a rejected delta", etruss, after)
	if sess.Applied() != 1 {
		t.Fatalf("applied = %d, want 1", sess.Applied())
	}
}

func copyTruss(m map[Edge]int32) map[Edge]int32 {
	out := make(map[Edge]int32, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sameTruss(t *testing.T, when string, got, want map[Edge]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries %s, want %d", len(got), when, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("truss[%v] = %d %s, want %d", k, got[k], when, v)
		}
	}
}

// TestApplyErrors exercises the validation paths.
func TestApplyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 10, 0.3)
	sess := NewSession(g, kcore.Decompose(g), edgeTrussOf(g))
	cases := []Delta{
		AddEdge(0, 0),
		AddEdge(0, 99),
		RemoveEdge(0, 99),
		SetAttr(99, []string{"x"}, nil),
		SetAttr(1, nil, nil),
		{Op: Op(77)},
		AddNode(nil, []float64{1}), // wrong NumDim (graph has 2)
	}
	for _, d := range cases {
		if err := sess.Apply(d); err == nil {
			t.Errorf("Apply(%+v) accepted", d)
		}
	}
	if sess.Applied() != 0 {
		t.Fatalf("Applied = %d after rejected deltas", sess.Applied())
	}
}
