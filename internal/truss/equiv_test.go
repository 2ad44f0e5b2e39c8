package truss

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// plantedGraph returns cliques of 4–9 nodes, each with a few edges knocked
// out, over random node subsets of a sparse random graph: trusses of several
// levels that overlap, touch and sit in different components.
func plantedGraph(rng *rand.Rand) *graph.Graph {
	n := 24 + rng.Intn(60)
	b := graph.NewBuilder(n, 0)
	for c := 2 + rng.Intn(5); c > 0; c-- {
		nodes := rng.Perm(n)[:4+rng.Intn(6)]
		for i, u := range nodes {
			for _, v := range nodes[i+1:] {
				if rng.Intn(10) > 0 {
					b.AddEdge(graph.NodeID(u), graph.NodeID(v))
				}
			}
		}
	}
	for i := n * (1 + rng.Intn(3)); i > 0; i-- {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// sameState fails unless the maintainer and the oracle agree on everything
// observable and on the internal state behind it: member sequence, size,
// per-node alive degree, and the alive edge set with its supports (matched
// by endpoints — the two index different edge sets).
func sameState(t *testing.T, at string, got *Sub, want *oracleSub, n int) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d, oracle %d", at, got.Size(), want.Size())
	}
	if g, w := got.Members(nil), want.Members(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: members %v, oracle %v", at, g, w)
	}
	for v := 0; v < n; v++ {
		if got.nodeDeg[v] != want.nodeDeg[v] {
			t.Fatalf("%s: nodeDeg[%d] = %d, oracle %d", at, v, got.nodeDeg[v], want.nodeDeg[v])
		}
	}
	alive := 0
	for e, a := range got.edgeAlive {
		if !a {
			continue
		}
		alive++
		we, ok := want.ix.EdgeID(got.ix.U[e], got.ix.V[e])
		if !ok || !want.edgeAlive[we] {
			t.Fatalf("%s: edge (%d,%d) alive, dead in the oracle", at, got.ix.U[e], got.ix.V[e])
		}
		if got.sup[e] != want.sup[we] {
			t.Fatalf("%s: sup(%d,%d) = %d, oracle %d", at, got.ix.U[e], got.ix.V[e], got.sup[e], want.sup[we])
		}
	}
	for _, a := range want.edgeAlive {
		if a {
			alive--
		}
	}
	if alive != 0 {
		t.Fatalf("%s: %d fewer alive edges than the oracle", at, -alive)
	}
}

// TestExtractionMatchesOracle checks the one-pass extraction against the
// decomposition-based path it replaced, on the contract SEA's determinism
// rests on: same nil/non-nil answer, same member SEQUENCE (it fixes peel
// tie-breaks and BLB resampling), same maintainer state, and the same
// removed lists and state through a random RemoveCascade/Restore script.
func TestExtractionMatchesOracle(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	w := ws.Get()
	defer w.Release()
	found := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := plantedGraph(rng)
		n := g.NumNodes()
		for k := 3; k <= 6; k++ {
			q := graph.NodeID(rng.Intn(n))
			members := oracleMaximal(nil, g, q, k, w)
			pooled, _ := MaximalSubIn(context.Background(), g, q, k, nil, math.MaxInt, w)
			if (members == nil) != (pooled == nil) {
				t.Fatalf("seed %d k %d q %d: oracle members %v, MaximalSubIn nil=%v", seed, k, q, members, pooled == nil)
			}
			if got := MaximalConnectedKTruss(g, q, k); !slices.Equal(got, members) {
				t.Fatalf("seed %d k %d q %d: MaximalConnectedKTruss %v, oracle %v", seed, k, q, got, members)
			}
			if members == nil {
				continue
			}
			found++
			want, err := newOracleSub(g, q, k, members)
			if err != nil {
				t.Fatal(err)
			}
			owned, err := NewSub(g, q, k, members)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*Sub{"MaximalSubIn": pooled, "NewSub": owned} {
				sameState(t, name+" built", got, want, n)
			}

			// One script, run on both maintainers beside the oracle.
			var open [][]graph.NodeID
			for step := 0; step < 24; step++ {
				if len(open) > 0 && rng.Intn(3) == 0 {
					removed := open[len(open)-1]
					open = open[:len(open)-1]
					want.Restore(removed)
					pooled.Restore()
					owned.Restore()
				} else {
					v := members[rng.Intn(len(members))] // dead nodes and q included
					removed, qAlive := want.RemoveCascade(v)
					for name, got := range map[string]*Sub{"MaximalSubIn": pooled, "NewSub": owned} {
						r, a := got.RemoveCascade(v)
						if a != qAlive || !slices.Equal(r, removed) {
							t.Fatalf("seed %d k %d q %d step %d %s: RemoveCascade(%d) = %v,%v, oracle %v,%v",
								seed, k, q, step, name, v, r, a, removed, qAlive)
						}
					}
					open = append(open, removed)
				}
				sameState(t, "MaximalSubIn mid-script", pooled, want, n)
				sameState(t, "NewSub mid-script", owned, want, n)
			}
			for len(open) > 0 {
				removed := open[len(open)-1]
				open = open[:len(open)-1]
				want.Restore(removed)
				pooled.Restore()
				owned.Restore()
			}
			sameState(t, "MaximalSubIn unwound", pooled, want, n)
			if got := pooled.Members(nil); !slices.Equal(got, members) {
				t.Fatalf("seed %d k %d q %d: unwound to %v, built from %v", seed, k, q, got, members)
			}
		}
	}
	t.Logf("%d of %d cases had a k-truss", found, 4*seeds)
	if found < seeds/2 {
		t.Fatalf("only %d of %d cases had a k-truss: the generator no longer exercises the extraction", found, 4*seeds)
	}
}

// TestDecomposeMatchesOracle: the start-at-k bucket scan and the oriented
// support count leave every trussness as it was.
func TestDecomposeMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		g := plantedGraph(rand.New(rand.NewSource(seed)))
		ix, got := Decompose(g)
		oix, want := oracleDecompose(g)
		if !slices.Equal(ix.U, oix.U) || !slices.Equal(ix.V, oix.V) {
			t.Fatalf("seed %d: edge numbering differs", seed)
		}
		if !slices.Equal(ix.Supports(), oix.Supports()) {
			t.Fatalf("seed %d: supports differ", seed)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: trussness %v, oracle %v", seed, got, want)
		}
	}
}
