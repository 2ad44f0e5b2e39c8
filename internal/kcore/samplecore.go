package kcore

import (
	"context"

	"repro/internal/graph"
	"repro/internal/ws"
)

// SampleCore keeps, for a node sample S of g that only grows, the k-core of
// the induced subgraph G[S] — {v : coreness of v in G[S] ≥ k} — on g's own
// node IDs, repaired on insertion instead of induced and decomposed again.
// SEA keeps one under the k-core model only: a k-truss round needs no core,
// just the sample's membership. S is w.Sampled, the core and the sample
// degrees live in w.SampleCore; Visited, DegS, Nodes and NbrA of w are
// scratch during a call.
type SampleCore struct {
	g graph.Adjacency
	k int32
	w *ws.Workspace
}

// NewSampleCore starts from the empty sample, in O(1) once w has served a
// graph of g's size.
func NewSampleCore(g graph.Adjacency, k int, w *ws.Workspace) SampleCore {
	n, sc := g.NumNodes(), &w.SampleCore
	w.Sampled.Reset(n)
	sc.Core.Reset(n)
	sc.Deg = ws.I32(sc.Deg, n)
	return SampleCore{g: g, k: int32(k), w: w}
}

// Insert adds nodes, none of them sampled yet, to the sample. The core can
// only gain, and every connected piece of the gain contains an inserted node
// (one without would have been a k-core beside the old core in the old G[S]).
// So the repair walks from the inserted nodes through non-core members of
// sample-degree ≥ k, counting each one's neighbours in core ∪ walked: a node
// below k is evicted, the walk does not pass through it, and what is left is
// admitted. What the walk never reaches costs nothing.
//
// A cancelled ctx ends it between blocks of nodes with ctx's error; the
// structure is then half updated and must not be used again.
func (c *SampleCore) Insert(ctx context.Context, nodes []graph.NodeID) error {
	g, k, w, sc, in := c.g, c.k, c.w, &c.w.SampleCore, &c.w.Sampled
	for i, v := range nodes {
		if i&1023 == 1023 && ctx.Err() != nil {
			return ctx.Err()
		}
		in.Add(v)
		d := int32(0)
		for _, u := range g.NeighborsInto(&w.NbrA, v) {
			if in.Has(u) {
				d++
				sc.Deg[u]++
			}
		}
		sc.Deg[v] = d
	}

	const queued, evicted = -1, -2 // cnt of a walked node that is not a live candidate
	seen := &w.Visited
	seen.Reset(g.NumNodes())
	cnt := ws.I32(w.DegS, g.NumNodes())
	queue, stack := sc.Queue[:0], w.Nodes[:0]
	for _, v := range nodes {
		if sc.Deg[v] >= k {
			seen.Add(v)
			cnt[v] = queued
			queue = append(queue, v)
		}
	}
	// open: u is in the core, or has the degree to join and is not evicted.
	open := func(u graph.NodeID) bool {
		return in.Has(u) && sc.Deg[u] >= k && !(seen.Has(u) && cnt[u] == evicted)
	}
	for i := 0; i < len(queue); i++ {
		if i&1023 == 1023 && ctx.Err() != nil {
			return ctx.Err()
		}
		v := queue[i]
		nbrs := g.NeighborsInto(&w.NbrA, v)
		d := int32(0)
		for _, u := range nbrs {
			if open(u) {
				d++
			}
		}
		if d >= k {
			cnt[v] = d
			for _, u := range nbrs {
				if !sc.Core.Has(u) && open(u) && seen.Add(u) {
					cnt[u] = queued
					queue = append(queue, u)
				}
			}
			continue
		}
		// Evict v and whatever that pulls below k among the nodes already
		// counted; the queued ones will not count an evicted neighbour.
		cnt[v] = evicted
		stack = append(stack, v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.NeighborsInto(&w.NbrA, x) {
				if seen.Has(u) && cnt[u] >= 0 {
					if cnt[u]--; cnt[u] < k {
						cnt[u] = evicted
						stack = append(stack, u)
					}
				}
			}
		}
	}
	for _, v := range queue {
		if cnt[v] >= 0 {
			sc.Core.Add(v)
		}
	}
	sc.Queue, w.Nodes, w.DegS = queue[:0], stack[:0], cnt
	return nil
}

// ComponentInto appends to dst the connected component of q in the core, in
// BFS order from q with each node's neighbours in g's order — the order
// MaximalConnectedKCoreInto yields on the induced subgraph, whose IDs ascend
// with g's. It returns nil (not dst) when q is not in the core.
func (c *SampleCore) ComponentInto(dst []graph.NodeID, q graph.NodeID) []graph.NodeID {
	w, sc := c.w, &c.w.SampleCore
	if !sc.Core.Has(q) {
		return nil
	}
	w.Visited.Reset(c.g.NumNodes())
	w.Visited.Add(q)
	start := len(dst)
	dst = append(dst, q)
	for i := start; i < len(dst); i++ {
		for _, u := range c.g.NeighborsInto(&w.NbrA, dst[i]) {
			if sc.Core.Has(u) && w.Visited.Add(u) {
				dst = append(dst, u)
			}
		}
	}
	return dst
}
