// Package truss implements k-truss decomposition, maximal connected k-truss
// extraction, and an incremental connected-k-truss maintenance structure with
// rollback (the §VI-C extension of the paper).
//
// A k-truss is a subgraph in which every edge participates in at least k−2
// triangles inside the subgraph. Every node of a k-truss has degree ≥ k−1.
//
// Everything here runs on one EdgeIndex: a compact copy of the indexed
// nodes' adjacency with a dense ID per undirected edge. Supports are counted
// once per triangle (EdgeIndex.supportsInto), triangles through one edge are
// listed by one merge (EdgeIndex.triangles), and edges are peeled at a fixed
// threshold by one work-stack loop (Sub.drain). Every extraction for a given
// k (MaximalSubIn, MaximalConnectedKTruss, NewSub) is MaximalSubIn's: it
// never computes trussness, and it indexes only the nodes q reaches over
// edges that close at least k−2 triangles among the candidate nodes — a node
// set, or all of g (reach): q's truss lies among them, so an extraction
// costs the neighbourhood of that truss, not the component around it, and
// clears only the previous index's per-node entries. Decompose, the
// level-by-level peel, is for callers that index all of g; its peel, Peel,
// also re-peels the incremental maintenance's scopes (internal/mutate).
package truss

import (
	"context"
	"math"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/ws"
)

// EdgeIndex assigns a dense ID to every undirected edge among the indexed
// nodes of a graph — all of them, or a subset — and keeps those nodes'
// adjacency restricted to each other, so the triangle loops touch neither
// the backing graph nor non-indexed neighbours. Edge IDs ascend with (U,V).
type EdgeIndex struct {
	// nodes are the indexed nodes, ascending. Row v is adj[lo[v]:end[v]],
	// ascending, with the edge ID of each entry in eid; hi[v] is the position
	// of v's first neighbour above v. A node outside the index has an empty
	// row.
	nodes       []graph.NodeID
	lo, hi, end []int32
	adj         []graph.NodeID
	eid         []int32
	// U, V are the endpoints of each edge, U[i] < V[i].
	U, V []graph.NodeID
}

// NewEdgeIndex builds the edge index of all of g.
func NewEdgeIndex(g graph.Adjacency) *EdgeIndex {
	sc := new(ws.TrussScratch)
	clean(sc, g.NumNodes())
	for v := range g.NumNodes() {
		sc.Nodes = append(sc.Nodes, graph.NodeID(v))
	}
	ix := new(EdgeIndex)
	var nbr []graph.NodeID
	ix.build(g, sc.Nodes, nil, &nbr, sc)
	return ix
}

// clean sizes sc's per-node arrays to a graph of n nodes with every entry
// zero and empties its node list. Only the nodes the previous index on sc
// held can have a non-zero entry (marks are cleared by whoever sets them),
// so only theirs are cleared: an extraction costs its own nodes, not |V|.
func clean(sc *ws.TrussScratch, n int) {
	if len(sc.Lo) < n {
		sc.Lo, sc.Hi, sc.End, sc.NodeDeg = make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, n)
		sc.Mark = make([]bool, n)
	} else {
		for _, v := range sc.Nodes {
			sc.Lo[v], sc.Hi[v], sc.End[v], sc.NodeDeg[v] = 0, 0, 0, 0
		}
	}
	sc.Nodes = sc.Nodes[:0]
}

// build indexes the subgraph of g induced by nodes, which ascend and whose
// membership is in (nil when nodes is all of g), into sc's arrays, cleaned
// beforehand. Two passes over the indexed rows: one to size them, one that
// copies neighbours and numbers each edge at its lower endpoint u, writing
// the ID into v's row at v's hi cursor — rows are visited in ascending u, so
// v's lower neighbours arrive in row order.
func (ix *EdgeIndex) build(g graph.Adjacency, nodes []graph.NodeID, in *graph.NodeSet, nbr *[]graph.NodeID, sc *ws.TrussScratch) {
	lo, hi, end := sc.Lo, sc.Hi, sc.End
	arcs := int32(0)
	for _, v := range nodes {
		lo[v], hi[v] = arcs, arcs
		if in == nil {
			arcs += int32(g.Degree(v))
		} else {
			for _, u := range g.NeighborsInto(nbr, v) {
				arcs += b2i(in.Has(u))
			}
		}
		end[v] = arcs
	}
	adj, eid := ws.I32(sc.Adj, int(arcs)), ws.I32(sc.Eid, int(arcs))
	us, vs := ws.I32(sc.U, int(arcs/2)), ws.I32(sc.V, int(arcs/2))
	next := int32(0)
	for _, u := range nodes {
		p := lo[u]
		for _, v := range g.NeighborsInto(nbr, u) {
			if in != nil && !in.Has(v) {
				continue
			}
			adj[p] = v
			if v > u {
				us[next], vs[next] = u, v
				eid[p] = next
				eid[hi[v]] = next
				hi[v]++
				next++
			}
			p++
		}
	}
	sc.Adj, sc.Eid, sc.U, sc.V = adj, eid, us, vs
	*ix = EdgeIndex{nodes: nodes, lo: lo, hi: hi, end: end, adj: adj, eid: eid, U: us, V: vs}
}

// NumEdges returns the number of undirected edges.
func (ix *EdgeIndex) NumEdges() int { return len(ix.U) }

// EdgeID returns the edge ID of (u,v) and whether the edge is indexed.
func (ix *EdgeIndex) EdgeID(u, v graph.NodeID) (int32, bool) {
	lo := int(ix.lo[u])
	ns := ix.adj[lo:ix.end[u]]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i >= len(ns) || ns[i] != v {
		return 0, false
	}
	return ix.eid[lo+i], true
}

// Supports counts, for every edge, the number of triangles it closes.
func (ix *EdgeIndex) Supports() []int32 { return ix.supportsInto(nil) }

// supportsInto is Supports into sup's backing array. Each triangle u<v<w is
// found once, at its edge (u,v), by merging what follows v in u's row with
// the upper half of v's row, and credited to all three of its edges.
func (ix *EdgeIndex) supportsInto(sup []int32) []int32 {
	sup = ws.I32(sup, ix.NumEdges())
	clear(sup)
	adj, eid := ix.adj, ix.eid
	for _, u := range ix.nodes {
		endU := ix.end[u]
		for p := ix.hi[u]; p < endU; p++ {
			v, e := adj[p], eid[p]
			i, j, endV := p+1, ix.hi[v], ix.end[v]
			for i < endU && j < endV {
				a, b := adj[i], adj[j]
				if a == b {
					sup[e]++
					sup[eid[i]]++
					sup[eid[j]]++
				}
				i += b2i(a <= b)
				j += b2i(a >= b)
			}
		}
	}
	return sup
}

// triangles appends to dst, for every common neighbour w of edge e = (u,v)
// whose edges e1 = (u,w) and e2 = (v,w) are both alive, the pair e1, e2.
func (ix *EdgeIndex) triangles(dst []int32, e int32, alive []bool) []int32 {
	u, v := ix.U[e], ix.V[e]
	nu, eu := ix.adj[ix.lo[u]:ix.end[u]], ix.eid[ix.lo[u]:ix.end[u]]
	nv, ev := ix.adj[ix.lo[v]:ix.end[v]], ix.eid[ix.lo[v]:ix.end[v]]
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		a, b := nu[i], nv[j]
		if a == b {
			if e1, e2 := eu[i], ev[j]; alive[e1] && alive[e2] {
				dst = append(dst, e1, e2)
			}
		}
		i += int(b2i(a <= b))
		j += int(b2i(a >= b))
	}
	return dst
}

// b2i is 1 for true, 0 for false; it compiles to a flag-set, not a branch.
// The sorted-list merges advance with it: which of two lists is behind is a
// coin flip the branch predictor loses at every step.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Decompose computes the trussness of every edge by support peeling: the
// trussness of e is the largest k such that e belongs to a k-truss.
func Decompose(g graph.Adjacency) (*EdgeIndex, []int32) {
	ix := NewEdgeIndex(g)
	truss := make([]int32, ix.NumEdges())
	Peel(ix.Supports(), nil, ix.triangles, func(e, t int32) { truss[e] = t })
	return ix, truss
}

// Peel computes trussness by support peeling over the edges 0..len(cur)-1,
// cur holding each edge's support, and calls set(e, t) with the trussness t
// of every edge that is not pinned. triangles appends, for every triangle
// through e whose other two edges are both alive, the pair of those edges.
// A pinned edge (pinned may be nil: none is) has a known trussness t and
// enters at cur = t−2: it is never decremented, and still decrements its
// triangle partners when the peel passes its level — how the global peel
// treats an edge of that trussness, so a peel of a closed scope of edges,
// pinned at its boundary, computes the scope's trussness as a peel of the
// whole graph would. cur is consumed.
func Peel(cur []int32, pinned []bool, triangles func(dst []int32, e int32, alive []bool) []int32, set func(e, t int32)) {
	m := len(cur)
	// Bucket queue on support, lazily invalidated: an entry counts only
	// while its edge is alive and still has that support.
	maxSup := int32(0)
	for _, s := range cur {
		maxSup = max(maxSup, s)
	}
	buckets := make([][]int32, maxSup+1)
	for e, s := range cur {
		buckets[s] = append(buckets[s], int32(e))
	}
	alive := make([]bool, m)
	for e := range alive {
		alive[e] = true
	}
	var tri []int32
	k := int32(0)
	for processed := 0; processed < m; processed++ {
		// Pop the lowest live entry. No live entry sits below the current
		// level k: k only rises to a popped support, taken from the lowest
		// non-empty bucket, and after that supports are clamped at k while
		// pinned ones, never decremented, stay where they entered.
		e := int32(-1)
		for s := k; s <= maxSup && e < 0; s++ {
			b := buckets[s]
			for len(b) > 0 && e < 0 {
				if cand := b[len(b)-1]; alive[cand] && cur[cand] == s {
					e = cand
				}
				b = b[:len(b)-1]
			}
			buckets[s] = b
		}
		if e < 0 {
			break
		}
		k = max(k, cur[e])
		alive[e] = false
		if pinned == nil || !pinned[e] {
			set(e, k+2)
		}
		tri = triangles(tri[:0], e, alive)
		for _, t := range tri {
			if (pinned == nil || !pinned[t]) && cur[t] > k {
				cur[t]--
				buckets[cur[t]] = append(buckets[cur[t]], t)
			}
		}
	}
}

// MaximalSubIn returns the maintenance structure over the maximal connected
// k-truss containing q of G[in] — of all of g when in is nil — or nil if q
// has no edge in any k-truss of it. Its members come in BFS order from q
// over the truss's edges. It indexes, counts and peels only what q reaches
// over edges that close at least k−2 triangles in G[in] (reach), not all of
// G[in]: on a SEA round that merges q into a core component of thousands of
// nodes, that is the few dozen around q. The answer is the one a build over
// all of G[in] gives: q's truss T lies in G[R] for the reached set R, so T
// is within the k-truss of G[R], which in turn lies within the k-truss of
// G[in], whose q-component is T. Edge IDs ascend with (U,V) either way, so
// the member order, the supports and every removal sequence of the
// maintainer are the same too. All storage is w's (w.Truss): the returned
// Sub is valid until the next k-truss extraction on w or w's release;
// w.Visited holds R afterwards.
//
// The reach gives up once it has reached more than limit nodes
// (math.MaxInt: never), and so does a cancelled ctx, between blocks of
// nodes; either way the result is nil and closed is false. closed is true
// when the reach took all q reaches, so a nil Sub then proves q has no
// k-truss in G[in].
func MaximalSubIn(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, limit int, w *ws.Workspace) (sub *Sub, closed bool) {
	s := new(Sub)
	found, closed := s.extract(ctx, g, q, k, in, limit, w, &w.Truss)
	if !found {
		return nil, closed
	}
	return s, true
}

// extract is MaximalSubIn into s on the scratch sc, with w's sets and
// neighbour buffers as temporaries only. Reports whether q has a truss and
// whether the reach closed within limit.
func (s *Sub) extract(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, limit int, w *ws.Workspace, sc *ws.TrussScratch) (found, closed bool) {
	clean(sc, g.NumNodes())
	if in != nil && !in.Has(q) {
		return false, true
	}
	nodes := reach(ctx, g, q, k, in, limit, w, sc)
	if nodes == nil {
		return false, false
	}
	slices.Sort(nodes)
	return s.build(g, q, k, nodes, &w.Visited, &w.NbrA, sc), true
}

// reach returns in sc.Nodes, and marks in w.Visited, the nodes of q's
// component over the edges of G[in] (in nil: of g) that close at least k−2
// triangles in G[in]: for each node x reached it marks x's neighbours in
// in, and takes an edge (x,y) to a node y not reached yet when k−2 of y's
// neighbours are marked. Every edge of q's truss closes k−2 triangles inside the truss,
// hence in G[in], and the truss is connected, so every one of its nodes is
// reached. Returns nil when ctx is cancelled or more than limit nodes are
// reached.
func reach(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, limit int, w *ws.Workspace, sc *ws.TrussScratch) []graph.NodeID {
	need, mark, seen := int32(k-2), sc.Mark, &w.Visited
	seen.Reset(g.NumNodes())
	seen.Add(q)
	nodes := append(sc.Nodes[:0], q)
	for i := 0; i < len(nodes); i++ {
		if i&255 == 255 && ctx.Err() != nil {
			sc.Nodes = nodes[:0]
			return nil
		}
		nx := g.NeighborsInto(&w.NbrA, nodes[i])
		for _, y := range nx {
			mark[y] = in == nil || in.Has(y)
		}
		for _, y := range nx {
			if !mark[y] || seen.Has(y) {
				continue
			}
			c := int32(0)
			if need > 0 {
				for _, z := range g.NeighborsInto(&w.NbrB, y) {
					if c += b2i(mark[z]); c == need {
						break
					}
				}
			}
			if c >= need {
				seen.Add(y)
				nodes = append(nodes, y)
			}
		}
		for _, y := range nx {
			mark[y] = false
		}
		if len(nodes) > limit {
			sc.Nodes = nodes[:0]
			return nil
		}
	}
	sc.Nodes = nodes
	return nodes
}

// MaximalConnectedKTruss returns the node set of the maximal connected
// k-truss containing q, or nil if none exists. Connectivity is over edges of
// trussness ≥ k.
func MaximalConnectedKTruss(g graph.Adjacency, q graph.NodeID, k int) []graph.NodeID {
	w := ws.Get()
	defer w.Release()
	return MaximalConnectedKTrussInto(nil, g, q, k, w)
}

// MaximalConnectedKTrussInto is MaximalConnectedKTruss appending to dst,
// with all working storage drawn from w and the maintainer's header held
// here: the members of MaximalSubIn over all of g. Returns nil when q has
// no qualifying edge.
func MaximalConnectedKTrussInto(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, k int, w *ws.Workspace) []graph.NodeID {
	var s Sub
	if found, _ := s.extract(context.Background(), g, q, k, nil, math.MaxInt, w, &w.Truss); !found {
		return nil
	}
	return append(dst, s.universe...)
}

// InKTrussSet reports whether members is a valid connected k-truss
// community node set: peeling the induced edges to the maximal k-truss
// leaves every member incident to a surviving edge, and the surviving edges
// connect all members. A k-truss is an edge subgraph, so the node-induced
// graph may legitimately contain extra low-support edges; they are peeled,
// not rejected. Used by tests and validators.
func InKTrussSet(g graph.Adjacency, members []graph.NodeID, k int) bool {
	if len(members) == 0 {
		return false
	}
	if len(members) == 1 {
		return k <= 1
	}
	wsp := ws.Get()
	defer wsp.Release()
	in := &wsp.Member
	in.Reset(g.NumNodes())
	for _, v := range members {
		in.Add(v)
	}
	alive := map[[2]graph.NodeID]bool{}
	for _, v := range members {
		for _, u := range g.NeighborsInto(&wsp.NbrA, v) {
			if u > v && in.Has(u) {
				alive[[2]graph.NodeID{v, u}] = true
			}
		}
	}
	has := func(a, b graph.NodeID) bool {
		if a > b {
			a, b = b, a
		}
		return alive[[2]graph.NodeID{a, b}]
	}
	for changed := true; changed; {
		changed = false
		for e := range alive {
			u, v := e[0], e[1]
			sup := 0
			for _, w := range g.NeighborsInto(&wsp.NbrA, u) {
				if in.Has(w) && w != v && has(u, w) && has(v, w) {
					sup++
				}
			}
			if sup < k-2 {
				delete(alive, e)
				changed = true
			}
		}
	}
	// Every member must keep an edge, and the surviving edges must connect
	// all members.
	deg := map[graph.NodeID]int{}
	adj := map[graph.NodeID][]graph.NodeID{}
	for e := range alive {
		deg[e[0]]++
		deg[e[1]]++
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, v := range members {
		if deg[v] == 0 {
			return false
		}
	}
	seen := map[graph.NodeID]bool{members[0]: true}
	stack := []graph.NodeID{members[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range adj[v] {
			if !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(members)
}
