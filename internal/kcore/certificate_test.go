package kcore

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// certGraph draws a graph for the certificate. Beside sampleGraph's shapes
// it draws the two regimes SEA meets: a giant core, most nodes wired a few
// times over with sparse trees hanging off it, and dense planted
// communities over a sparse background, where q's maximal core is its
// community and the nodes around it have few neighbours. The last shape is
// a few random cycles sharing nodes, a core where most degrees are exactly
// k (2, or 4 where two cycles cross), so that a degree test off by one is
// seen.
func certGraph(rng *rand.Rand) *graph.Graph {
	pick := func(lo, hi int) graph.NodeID { return graph.NodeID(lo + rng.Intn(hi-lo)) }
	switch rng.Intn(4) {
	case 0:
		return sampleGraph(rng, 8+rng.Intn(120))
	case 1:
		n := 20 + rng.Intn(100)
		b := graph.NewBuilder(n, 0)
		for range 1 + rng.Intn(4) {
			cycle := rng.Perm(n)[:3+rng.Intn(n/2)]
			for i, v := range cycle {
				b.AddEdge(graph.NodeID(v), graph.NodeID(cycle[(i+1)%len(cycle)]))
			}
		}
		for range rng.Intn(4) {
			b.AddEdge(pick(0, n), pick(0, n))
		}
		return b.MustBuild()
	case 2:
		n := 200 + rng.Intn(800)
		core := n * (5 + rng.Intn(4)) / 10
		b := graph.NewBuilder(n, 0)
		perNode := 1.5 + 2.5*rng.Float64()
		for range int(perNode * float64(core)) {
			b.AddEdge(pick(0, core), pick(0, core))
		}
		for v := core; v < n; v++ {
			b.AddEdge(graph.NodeID(v), pick(0, v))
			if rng.Intn(3) == 0 {
				b.AddEdge(graph.NodeID(v), pick(0, n))
			}
		}
		return b.MustBuild()
	default:
		// Communities on the first half, each dense at its own density;
		// the other half hangs off random nodes by one to three edges.
		n := 60 + rng.Intn(200)
		b := graph.NewBuilder(n, 0)
		for lo := 0; lo < n/2; {
			hi := min(n/2, lo+6+rng.Intn(14))
			density := 0.3 + 0.7*rng.Float64()
			for u := lo; u < hi; u++ {
				for v := u + 1; v < hi; v++ {
					if rng.Float64() < density {
						b.AddEdge(graph.NodeID(u), graph.NodeID(v))
					}
				}
			}
			lo = hi
		}
		for v := n / 2; v < n; v++ {
			for range 1 + rng.Intn(3) {
				b.AddEdge(graph.NodeID(v), pick(0, n))
			}
		}
		return b.MustBuild()
	}
}

// peelOrder peels s to q's death: each step removes the alive member other
// than q of the highest priority and logs the cascade's window, and the
// cascade that kills q is rolled back, as S2's greedy peel does.
func peelOrder(s *Sub, prio []int) []graph.NodeID {
	var log []graph.NodeID
	for {
		worst := graph.NodeID(-1)
		for _, v := range s.Members(nil) {
			if v != s.Query() && (worst < 0 || prio[v] > prio[worst]) {
				worst = v
			}
		}
		if worst < 0 {
			return log
		}
		removed, qAlive := s.RemoveCascade(worst)
		log = append(append(log, removed...), -1)
		if !qAlive {
			s.Restore()
			return append(log, s.Members(nil)...)
		}
	}
}

// TestProvesMaximalIsExact: wherever the certificate holds on q's maximal
// connected k-core of G[S], that core is q's maximal connected k-core of G:
// the same members in the same order as the extraction over all of g, the
// same order again over any S' ⊇ S, and the same removals under a full
// peel. The graphs include giant cores and planted communities; S' is S
// with a random part of the rest added.
func TestProvesMaximalIsExact(t *testing.T) {
	ctx := context.Background()
	wS, wAll, wS2 := new(ws.Workspace), new(ws.Workspace), new(ws.Workspace)
	var inS, inS2 graph.NodeSet
	held, missed, cores := 0, 0, 0
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := certGraph(rng)
		n := g.NumNodes()
		k := 1 + rng.Intn(6)
		q := graph.NodeID(rng.Intn(n))
		if rng.Intn(2) == 0 {
			q = graph.NodeID(rng.Intn(n/2 + 1)) // in a planted community, if any
		}
		// S is q, a random part of the graph and, as often as not, q's
		// maximal core in g with each member left out at a small rate:
		// SEA's sample draws near q, and a core that misses a member or two
		// is where a wrong certificate shows.
		pS, pS2, pDrop := rng.Float64(), rng.Float64(), 0.15*rng.Float64()
		inS.Reset(n)
		inS2.Reset(n)
		add := func(v graph.NodeID) { inS.Add(v); inS2.Add(v) }
		add(q)
		if rng.Intn(2) == 0 {
			for _, v := range oracleMaximal(g, q, k) {
				if rng.Float64() >= pDrop {
					add(v)
				}
			}
		}
		for v := range graph.NodeID(n) {
			switch {
			case rng.Float64() < pS:
				add(v)
			case rng.Float64() < pS2:
				inS2.Add(v)
			}
		}
		at := fmt.Sprintf("seed %d n %d k %d q %d |S| %d", seed, n, k, q, inS.Len())

		sub := MaximalSubIn(ctx, g, q, k, &inS, wS)
		if sub == nil {
			continue
		}
		cores++
		if !sub.ProvesMaximal() {
			continue
		}
		held++
		all := MaximalSubIn(ctx, g, q, k, nil, wAll)
		if all == nil || !slices.Equal(sub.Universe(), all.Universe()) || !slices.Equal(sub.Members(nil), all.Members(nil)) {
			t.Fatalf("%s: the certificate holds on %v, q's maximal core in g is %v", at, sub.Universe(), all.Universe())
		}
		for _, x := range all.Universe() {
			for _, u := range g.Neighbors(x) {
				if !inS.Has(u) && !all.Alive(u) {
					missed++ // S left out a neighbour of the core: the case needed the certificate
				}
			}
		}
		if sub2 := MaximalSubIn(ctx, g, q, k, &inS2, wS2); sub2 == nil || !slices.Equal(sub2.Universe(), all.Universe()) {
			t.Fatalf("%s: S' ⊇ S gives another order than all of g", at)
		}
		prio := rng.Perm(n)
		if got, want := peelOrder(sub, prio), peelOrder(all, prio); !slices.Equal(got, want) {
			t.Fatalf("%s: the peel from S removes %v, from all of g %v", at, got, want)
		}
	}
	t.Logf("%d of %d cores certified, with %d core neighbours outside S", held, cores, missed)
	if held < 200 || held == cores || missed < 300 {
		t.Fatalf("%d of %d cores certified, %d core neighbours outside S: the cases check too little", held, cores, missed)
	}
}
