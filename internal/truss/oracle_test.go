package truss

// The extraction path this package had before the one-pass builder, kept
// verbatim (names aside) as the reference the equivalence test compares
// against: a full trussness decomposition with from-zero bucket scans and
// per-edge full-list support merges, a BFS over edges of trussness ≥ k, and
// a maintainer that builds a second edge index and recounts every support.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ws"
)

// oracleIndex assigns a dense ID to every undirected edge of a graph and maps
// adjacency positions to edge IDs so supports can be stored per edge.
type oracleIndex struct {
	g graph.Adjacency
	// off[v] is the position of v's first directed adjacency entry: v's list
	// occupies positions off[v] … off[v]+Degree(v)-1, in neighbor order.
	off []int
	// eid[p] is the edge ID of the directed adjacency entry at position p.
	eid []int32
	// U, V are the endpoints of each edge, U[i] < V[i].
	U, V []graph.NodeID
	// nbu, nbv are neighbor-decode scratch for backings that cannot alias.
	// oracleIndex methods are single-goroutine; build one index per worker.
	nbu, nbv []graph.NodeID
}

// newOracleIndex builds the edge index for g.
func newOracleIndex(g graph.Adjacency) *oracleIndex {
	n := g.NumNodes()
	idx := &oracleIndex{g: g, off: make([]int, n), eid: make([]int32, 2*g.NumEdges())}
	pos := 0
	var next int32
	// First pass: assign IDs to (u,v) with u < v in adjacency order.
	for u := 0; u < n; u++ {
		idx.off[u] = pos
		for _, v := range g.NeighborsInto(&idx.nbu, graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				idx.eid[pos] = next
				idx.U = append(idx.U, graph.NodeID(u))
				idx.V = append(idx.V, v)
				next++
			}
			pos++
		}
	}
	// Second pass: fill in the reverse directions by lookup.
	pos = 0
	for u := 0; u < n; u++ {
		for _, v := range g.NeighborsInto(&idx.nbu, graph.NodeID(u)) {
			if graph.NodeID(u) > v {
				idx.eid[pos] = idx.eid[idx.off[v]+idx.findPos(v, graph.NodeID(u))]
			}
			pos++
		}
	}
	return idx
}

// findPos returns the index of u within v's sorted neighbor list.
func (ix *oracleIndex) findPos(v, u graph.NodeID) int {
	ns := ix.g.NeighborsInto(&ix.nbv, v)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= u })
	return i
}

// NumEdges returns the number of undirected edges.
func (ix *oracleIndex) NumEdges() int { return len(ix.U) }

// EdgeID returns the edge ID of (u,v) and whether the edge exists.
func (ix *oracleIndex) EdgeID(u, v graph.NodeID) (int32, bool) {
	ns := ix.g.NeighborsInto(&ix.nbu, u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i >= len(ns) || ns[i] != v {
		return 0, false
	}
	return ix.eid[ix.off[u]+i], true
}

// Supports counts, for every edge, the number of triangles it closes.
func (ix *oracleIndex) Supports() []int32 {
	sup := make([]int32, ix.NumEdges())
	g := ix.g
	for e := range ix.U {
		u, v := ix.U[e], ix.V[e]
		nu := g.NeighborsInto(&ix.nbu, u)
		nv := g.NeighborsInto(&ix.nbv, v)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] == nv[j]:
				sup[e]++
				i++
				j++
			case nu[i] < nv[j]:
				i++
			default:
				j++
			}
		}
	}
	return sup
}

// oracleDecompose computes the trussness of every edge by support peeling: the
// trussness of e is the largest k such that e belongs to a k-truss.
func oracleDecompose(g graph.Adjacency) (*oracleIndex, []int32) {
	ix := newOracleIndex(g)
	m := ix.NumEdges()
	sup := ix.Supports()
	truss := make([]int32, m)

	// Bucket queue on support.
	maxSup := int32(0)
	for _, s := range sup {
		if s > maxSup {
			maxSup = s
		}
	}
	buckets := make([][]int32, maxSup+1)
	for e := 0; e < m; e++ {
		buckets[sup[e]] = append(buckets[sup[e]], int32(e))
	}
	removed := make([]bool, m)
	cur := append([]int32(nil), sup...)
	k := int32(0)
	processed := 0
	for processed < m {
		// Find the lowest non-empty bucket at or below current supports.
		var e int32 = -1
		for s := int32(0); s <= maxSup; s++ {
			for len(buckets[s]) > 0 {
				cand := buckets[s][len(buckets[s])-1]
				buckets[s] = buckets[s][:len(buckets[s])-1]
				if removed[cand] || cur[cand] != s {
					continue
				}
				e = cand
				break
			}
			if e >= 0 {
				break
			}
		}
		if e < 0 {
			break
		}
		if cur[e] > k {
			k = cur[e]
		}
		truss[e] = k + 2
		removed[e] = true
		processed++
		u, v := ix.U[e], ix.V[e]
		// Decrement supports of edges forming triangles with e.
		oracleForEachTriangle(ix, removed, u, v, func(e1, e2 int32) {
			for _, t := range [2]int32{e1, e2} {
				if cur[t] > k {
					cur[t]--
					buckets[cur[t]] = append(buckets[cur[t]], t)
				}
			}
		})
	}
	return ix, truss
}

// oracleForEachTriangle calls fn(e1,e2) for every common neighbor w of u and v such
// that edges e1=(u,w) and e2=(v,w) are not removed.
func oracleForEachTriangle(ix *oracleIndex, removed []bool, u, v graph.NodeID, fn func(e1, e2 int32)) {
	g := ix.g
	nu := g.NeighborsInto(&ix.nbu, u)
	nv := g.NeighborsInto(&ix.nbv, v)
	baseU, baseV := ix.off[u], ix.off[v]
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] == nv[j]:
			e1 := ix.eid[baseU+i]
			e2 := ix.eid[baseV+j]
			if !removed[e1] && !removed[e2] {
				fn(e1, e2)
			}
			i++
			j++
		case nu[i] < nv[j]:
			i++
		default:
			j++
		}
	}
}

// oracleMaximal is MaximalConnectedKTruss appending to dst,
// with the traversal's visited set drawn from w. The edge index and support
// peeling still allocate (trussness is an index-building computation); the
// workspace removes the per-call visited array. Returns nil when q has no
// qualifying edge.
func oracleMaximal(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, k int, w *ws.Workspace) []graph.NodeID {
	ix, truss := oracleDecompose(g)
	inTruss := func(u, v graph.NodeID) bool {
		e, ok := ix.EdgeID(u, v)
		return ok && int(truss[e]) >= k
	}
	// q qualifies only if it has at least one qualifying edge.
	hasEdge := false
	for _, u := range g.NeighborsInto(&w.NbrA, q) {
		if inTruss(q, u) {
			hasEdge = true
			break
		}
	}
	if !hasEdge {
		return nil
	}
	// BFS from q over qualifying edges.
	w.Visited.Reset(g.NumNodes())
	w.Visited.Add(q)
	start := len(dst)
	dst = append(dst, q)
	for i := start; i < len(dst); i++ {
		v := dst[i]
		for _, u := range g.NeighborsInto(&w.NbrA, v) {
			if !w.Visited.Has(u) && inTruss(v, u) {
				w.Visited.Add(u)
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// oracleSub maintains a connected k-truss containing a query node under node
// deletions with rollback. It implements cohesive.Maintainer.
//
// The alive set is a set of edges; a node is alive while it has at least one
// alive incident edge. RemoveCascade(v) deletes v's edges, cascades support
// violations, and restricts the alive edges to the query's component.
type oracleSub struct {
	g  graph.Adjacency
	ix *oracleIndex
	k  int
	q  graph.NodeID

	universe  []graph.NodeID // the initial member set; alive nodes ⊆ universe
	edgeAlive []bool
	sup       []int32 // support within alive edges
	nodeDeg   []int32 // number of alive incident edges
	size      int     // number of alive nodes

	// logStack records, per RemoveCascade, the edges removed (in order) and
	// the count of removed nodes. Restore must be called LIFO, which is how
	// every enumeration in this repository backtracks.
	logStack []oracleLog

	stack []int32 // cascade stack of edge IDs
	mark  []bool
	nbr   []graph.NodeID // neighbor-decode scratch for non-aliasing backings
}

// oracleLog pairs the edges removed by one RemoveCascade with the number of
// nodes that died, for LIFO rollback.
type oracleLog struct {
	edges    []int32
	numNodes int
}

// newOracleSub builds a maintenance structure over members, which must form a
// connected k-truss containing q.
func newOracleSub(g graph.Adjacency, q graph.NodeID, k int, members []graph.NodeID) (*oracleSub, error) {
	ix := newOracleIndex(g)
	s := &oracleSub{
		g:         g,
		ix:        ix,
		k:         k,
		q:         q,
		universe:  append([]graph.NodeID(nil), members...),
		edgeAlive: make([]bool, ix.NumEdges()),
		sup:       make([]int32, ix.NumEdges()),
		nodeDeg:   make([]int32, g.NumNodes()),
		mark:      make([]bool, g.NumNodes()),
	}
	in := make([]bool, g.NumNodes())
	for _, v := range members {
		in[v] = true
	}
	if !in[q] {
		return nil, fmt.Errorf("truss: query node %d not in member set", q)
	}
	// Activate induced edges.
	for _, v := range members {
		for _, u := range g.NeighborsInto(&s.nbr, v) {
			if u > v && in[u] {
				e, _ := ix.EdgeID(v, u)
				s.edgeAlive[e] = true
				s.nodeDeg[v]++
				s.nodeDeg[u]++
			}
		}
	}
	s.size = len(members)
	// Compute supports within alive edges, then peel edges below the
	// threshold: a k-truss is an edge subgraph, so the node-induced graph of
	// members may contain extra low-support edges that must go.
	for e := 0; e < ix.NumEdges(); e++ {
		if !s.edgeAlive[e] {
			continue
		}
		cnt := int32(0)
		s.forAliveTriangles(int32(e), func(e1, e2 int32) { cnt++ })
		s.sup[e] = cnt
		if int(cnt) < k-2 {
			s.stack = append(s.stack, int32(e))
		}
	}
	var nodesGone []graph.NodeID
	var elog []int32
	for len(s.stack) > 0 {
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.killEdge(e, &nodesGone, &elog)
	}
	if s.nodeDeg[q] == 0 {
		return nil, fmt.Errorf("truss: query node %d has no k-truss edge within the member set", q)
	}
	// Restrict to q's component over alive edges.
	s.restrictToQueryComponent(&nodesGone, &elog)
	return s, nil
}

// restrictToQueryComponent kills every alive edge outside q's component.
func (s *oracleSub) restrictToQueryComponent(nodes *[]graph.NodeID, elog *[]int32) {
	comp := []graph.NodeID{s.q}
	s.mark[s.q] = true
	compSize := 1
	for i := 0; i < len(comp); i++ {
		x := comp[i]
		baseX := s.ix.off[x]
		for j, u := range s.g.NeighborsInto(&s.nbr, x) {
			e := s.ix.eid[baseX+j]
			if s.edgeAlive[e] && !s.mark[u] {
				s.mark[u] = true
				comp = append(comp, u)
				compSize++
			}
		}
	}
	if compSize != s.size {
		for e := range s.edgeAlive {
			if s.edgeAlive[e] && !s.mark[s.ix.U[e]] {
				s.killEdgeNoCascade(int32(e), nodes, elog)
			}
		}
	}
	for _, u := range comp {
		s.mark[u] = false
	}
}

// forAliveTriangles calls fn for every triangle (e, e1, e2) with all three
// edges alive.
func (s *oracleSub) forAliveTriangles(e int32, fn func(e1, e2 int32)) {
	u, v := s.ix.U[e], s.ix.V[e]
	g := s.g
	nu := g.NeighborsInto(&s.ix.nbu, u)
	nv := g.NeighborsInto(&s.ix.nbv, v)
	baseU, baseV := s.ix.off[u], s.ix.off[v]
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] == nv[j]:
			e1 := s.ix.eid[baseU+i]
			e2 := s.ix.eid[baseV+j]
			if s.edgeAlive[e1] && s.edgeAlive[e2] {
				fn(e1, e2)
			}
			i++
			j++
		case nu[i] < nv[j]:
			i++
		default:
			j++
		}
	}
}

// Query returns the query node.
func (s *oracleSub) Query() graph.NodeID { return s.q }

// Size returns the number of alive nodes.
func (s *oracleSub) Size() int { return s.size }

// Alive reports whether v has at least one alive incident edge.
func (s *oracleSub) Alive(v graph.NodeID) bool { return s.nodeDeg[v] > 0 }

// Members appends alive nodes to dst and returns it. O(initial members),
// not O(graph).
func (s *oracleSub) Members(dst []graph.NodeID) []graph.NodeID {
	for _, v := range s.universe {
		if s.nodeDeg[v] > 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// killEdge deactivates edge e, updates node degrees and neighbor supports,
// cascading edges whose support drops below k-2. Removed nodes are appended
// to nodes, removed edges to the edge log.
func (s *oracleSub) killEdge(e int32, nodes *[]graph.NodeID, elog *[]int32) {
	if !s.edgeAlive[e] {
		return
	}
	s.edgeAlive[e] = false
	*elog = append(*elog, e)
	for _, end := range [2]graph.NodeID{s.ix.U[e], s.ix.V[e]} {
		s.nodeDeg[end]--
		if s.nodeDeg[end] == 0 {
			s.size--
			*nodes = append(*nodes, end)
		}
	}
	s.forAliveTriangles(e, func(e1, e2 int32) {
		s.sup[e1]--
		if int(s.sup[e1]) < s.k-2 {
			s.stack = append(s.stack, e1)
		}
		s.sup[e2]--
		if int(s.sup[e2]) < s.k-2 {
			s.stack = append(s.stack, e2)
		}
	})
}

// RemoveCascade deletes node v (all its alive edges), cascades support
// violations, and restricts alive edges to the query's component.
func (s *oracleSub) RemoveCascade(v graph.NodeID) (removed []graph.NodeID, qAlive bool) {
	if s.nodeDeg[v] == 0 {
		// No-op removal still pushes a log entry so Restore stays aligned.
		s.logStack = append(s.logStack, oracleLog{})
		return nil, s.nodeDeg[s.q] > 0
	}
	var elog []int32
	s.stack = s.stack[:0]
	baseV := s.ix.off[v]
	for i, d := 0, s.g.Degree(v); i < d; i++ {
		e := s.ix.eid[baseV+i]
		s.killEdge(e, &removed, &elog)
	}
	for len(s.stack) > 0 {
		e := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.killEdge(e, &removed, &elog)
	}
	if s.nodeDeg[s.q] == 0 {
		s.logStack = append(s.logStack, oracleLog{elog, len(removed)})
		return removed, false
	}
	s.restrictToQueryComponent(&removed, &elog)
	s.logStack = append(s.logStack, oracleLog{elog, len(removed)})
	return removed, true
}

// killEdgeNoCascade removes an edge known to be outside the query component.
func (s *oracleSub) killEdgeNoCascade(e int32, nodes *[]graph.NodeID, elog *[]int32) {
	s.edgeAlive[e] = false
	*elog = append(*elog, e)
	s.forAliveTriangles(e, func(e1, e2 int32) {
		s.sup[e1]--
		s.sup[e2]--
	})
	for _, end := range [2]graph.NodeID{s.ix.U[e], s.ix.V[e]} {
		s.nodeDeg[end]--
		if s.nodeDeg[end] == 0 {
			s.size--
			*nodes = append(*nodes, end)
		}
	}
}

// Restore re-inserts the edges and nodes removed by the most recent
// RemoveCascade. Restores must proceed LIFO; removed must be the slice
// returned by that call.
func (s *oracleSub) Restore(removed []graph.NodeID) {
	if len(s.logStack) == 0 {
		panic("truss: Restore with empty log stack")
	}
	top := s.logStack[len(s.logStack)-1]
	s.logStack = s.logStack[:len(s.logStack)-1]
	if top.numNodes != len(removed) {
		panic("truss: Restore out of LIFO order")
	}
	elog := top.edges
	for i := len(elog) - 1; i >= 0; i-- {
		e := elog[i]
		s.edgeAlive[e] = true
		cnt := int32(0)
		s.forAliveTriangles(e, func(e1, e2 int32) {
			cnt++
			s.sup[e1]++
			s.sup[e2]++
		})
		s.sup[e] = cnt
		for _, end := range [2]graph.NodeID{s.ix.U[e], s.ix.V[e]} {
			if s.nodeDeg[end] == 0 {
				s.size++
			}
			s.nodeDeg[end]++
		}
	}
}
