package truss

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cohesive"
	"repro/internal/graph"
	"repro/internal/ws"
)

var _ cohesive.Maintainer = (*Sub)(nil)

// Sub maintains a connected k-truss containing a query node under node
// deletions with rollback. It implements cohesive.Maintainer.
//
// The alive set is a set of edges; a node is alive while it has at least one
// alive incident edge. RemoveCascade(v) deletes v's edges, cascades support
// violations, and restricts the alive edges to the query's component.
type Sub struct {
	ix EdgeIndex
	k  int
	q  graph.NodeID

	universe  []graph.NodeID // the initial member set; alive nodes ⊆ universe
	edgeAlive []bool
	sup       []int32 // support within alive edges
	nodeDeg   []int32 // number of alive incident edges
	size      int     // number of alive nodes
	mark      []bool  // component marks, all false between calls

	// sc owns every array above and the buffers that grow while the
	// structure is in use — the peel stack, the triangle list, the component
	// queue and the rollback logs of the edges and of the nodes every open
	// RemoveCascade removed. Those are reached through sc so that growth
	// lands in the pooled scratch.
	sc *ws.TrussScratch
}

// NewSub builds a maintenance structure over the maximal k-truss inside
// members that contains q, restricted to q's component; members in, e.g.,
// MaximalConnectedKTruss's order keep that order.
func NewSub(g graph.Adjacency, q graph.NodeID, k int, members []graph.NodeID) (*Sub, error) {
	w := ws.Get()
	defer w.Release()
	in := &w.Member
	in.Reset(g.NumNodes())
	for _, v := range members {
		in.Add(v)
	}
	if !in.Has(q) {
		return nil, fmt.Errorf("truss: query node %d not in member set", q)
	}
	// The scratch is the structure's own: it outlives this call.
	s := new(Sub)
	if found, _ := s.extract(context.Background(), g, q, k, in, math.MaxInt, w, new(ws.TrussScratch)); !found {
		return nil, fmt.Errorf("truss: query node %d has no k-truss edge within the member set", q)
	}
	s.universe = append([]graph.NodeID(nil), members...)
	return s, nil
}

// build indexes the subgraph of g induced by nodes (ascending, membership
// in; nil for all of g) on the cleaned scratch sc, counts supports once,
// peels every edge below k−2, and keeps q's component: the index and the
// surviving alive/support/degree state are the maintainer, written into s.
// Reports whether an edge of q survives. The universe is q's component in
// BFS order.
func (s *Sub) build(g graph.Adjacency, q graph.NodeID, k int, nodes []graph.NodeID, in *graph.NodeSet, nbr *[]graph.NodeID, sc *ws.TrussScratch) bool {
	*s = Sub{k: k, q: q, sc: sc}
	s.ix.build(g, nodes, in, nbr, sc)
	sc.Sup = s.ix.supportsInto(sc.Sup)
	sc.Alive = bools(sc.Alive, s.ix.NumEdges(), true)
	s.sup, s.edgeAlive, s.mark, s.nodeDeg = sc.Sup, sc.Alive, sc.Mark, sc.NodeDeg
	for _, v := range nodes {
		s.nodeDeg[v] = s.ix.end[v] - s.ix.lo[v]
		if s.nodeDeg[v] > 0 {
			s.size++
		}
	}

	sc.Stack, sc.Log, sc.Removed, sc.Open = sc.Stack[:0], sc.Log[:0], sc.Removed[:0], sc.Open[:0]
	for e, c := range s.sup {
		if int(c) < k-2 {
			sc.Stack = append(sc.Stack, int32(e))
		}
	}
	s.drain()
	if s.nodeDeg[q] == 0 {
		return false
	}
	sc.Log, sc.Removed = sc.Log[:0], sc.Removed[:0] // construction is not undoable

	// Keep q's component. What lies outside — other trusses among the
	// indexed nodes — is dropped without the support bookkeeping of
	// killEdge: no triangle joins it to the component, and nothing can
	// restore it.
	comp := s.markQueryComponent()
	if len(comp) != s.size {
		for e, alive := range s.edgeAlive {
			if u := s.ix.U[e]; alive && !s.mark[u] {
				s.edgeAlive[e] = false
				s.nodeDeg[u]--
				s.nodeDeg[s.ix.V[e]]--
			}
		}
		s.size = len(comp)
	}
	s.unmark(comp)
	sc.Universe = append(sc.Universe[:0], comp...)
	s.universe = sc.Universe
	return true
}

// bools returns buf resized to n with every element set to v.
func bools(buf []bool, n int, v bool) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// Query returns the query node.
func (s *Sub) Query() graph.NodeID { return s.q }

// Size returns the number of alive nodes.
func (s *Sub) Size() int { return s.size }

// Alive reports whether v has at least one alive incident edge.
func (s *Sub) Alive(v graph.NodeID) bool { return s.nodeDeg[v] > 0 }

// Members appends alive nodes to dst and returns it. O(initial members),
// not O(graph).
func (s *Sub) Members(dst []graph.NodeID) []graph.NodeID {
	for _, v := range s.universe {
		if s.nodeDeg[v] > 0 {
			dst = append(dst, v)
		}
	}
	return dst
}

// killEdge deactivates the alive edge e, logs it, and takes it out of its
// endpoints' degrees and its triangles' supports. Nodes left without an edge
// are logged too; with cascade set, edges whose support drops below k−2 go
// on the peel stack.
func (s *Sub) killEdge(e int32, cascade bool) {
	sc := s.sc
	s.edgeAlive[e] = false
	sc.Log = append(sc.Log, e)
	for _, end := range [2]graph.NodeID{s.ix.U[e], s.ix.V[e]} {
		s.nodeDeg[end]--
		if s.nodeDeg[end] == 0 {
			s.size--
			sc.Removed = append(sc.Removed, end)
		}
	}
	sc.Tri = s.ix.triangles(sc.Tri[:0], e, s.edgeAlive)
	for _, t := range sc.Tri {
		s.sup[t]--
		if cascade && int(s.sup[t]) < s.k-2 {
			sc.Stack = append(sc.Stack, t)
		}
	}
}

// drain is the threshold peel: it kills stacked edges, and whatever their
// removal pushes below k−2, until the stack is empty.
func (s *Sub) drain() {
	sc := s.sc
	for len(sc.Stack) > 0 {
		e := sc.Stack[len(sc.Stack)-1]
		sc.Stack = sc.Stack[:len(sc.Stack)-1]
		if s.edgeAlive[e] {
			s.killEdge(e, true)
		}
	}
}

// markQueryComponent marks q's component over alive edges and returns it in
// BFS order (in sc.Comp). The caller clears the marks with unmark.
func (s *Sub) markQueryComponent() []graph.NodeID {
	comp := append(s.sc.Comp[:0], s.q)
	s.mark[s.q] = true
	for i := 0; i < len(comp); i++ {
		x := comp[i]
		for p := s.ix.lo[x]; p < s.ix.end[x]; p++ {
			if u := s.ix.adj[p]; s.edgeAlive[s.ix.eid[p]] && !s.mark[u] {
				s.mark[u] = true
				comp = append(comp, u)
			}
		}
	}
	s.sc.Comp = comp
	return comp
}

// unmark clears the marks markQueryComponent set.
func (s *Sub) unmark(comp []graph.NodeID) {
	for _, u := range comp {
		s.mark[u] = false
	}
}

// restrictToQueryComponent kills every alive edge outside q's component. No
// cascade: a triangle is connected, so the edges killed share none with the
// component.
func (s *Sub) restrictToQueryComponent() {
	comp := s.markQueryComponent()
	if len(comp) != s.size {
		for e, alive := range s.edgeAlive {
			if alive && !s.mark[s.ix.U[e]] {
				s.killEdge(int32(e), false)
			}
		}
	}
	s.unmark(comp)
}

// RemoveCascade deletes node v (all its alive edges), cascades support
// violations, and restricts alive edges to the query's component. See
// cohesive.Maintainer.
func (s *Sub) RemoveCascade(v graph.NodeID) (removed []graph.NodeID, qAlive bool) {
	sc := s.sc
	start := len(sc.Removed)
	sc.Open = append(sc.Open, [2]int32{int32(len(sc.Log)), int32(start)})
	if s.nodeDeg[v] > 0 {
		sc.Stack = sc.Stack[:0]
		for p := s.ix.lo[v]; p < s.ix.end[v]; p++ {
			if e := s.ix.eid[p]; s.edgeAlive[e] {
				s.killEdge(e, true)
			}
		}
		s.drain()
		if s.nodeDeg[s.q] > 0 {
			s.restrictToQueryComponent()
		}
	}
	end := len(sc.Removed)
	return sc.Removed[start:end:end], s.nodeDeg[s.q] > 0
}

// Restore undoes the most recent open RemoveCascade, re-inserting its edges
// most recent first, and with them its nodes. See cohesive.Maintainer.
func (s *Sub) Restore() {
	sc := s.sc
	if len(sc.Open) == 0 {
		panic("truss: Restore with empty log stack")
	}
	top := sc.Open[len(sc.Open)-1]
	sc.Open = sc.Open[:len(sc.Open)-1]
	for i := len(sc.Log) - 1; i >= int(top[0]); i-- {
		e := sc.Log[i]
		s.edgeAlive[e] = true
		sc.Tri = s.ix.triangles(sc.Tri[:0], e, s.edgeAlive)
		for _, t := range sc.Tri {
			s.sup[t]++
		}
		s.sup[e] = int32(len(sc.Tri) / 2)
		for _, end := range [2]graph.NodeID{s.ix.U[e], s.ix.V[e]} {
			if s.nodeDeg[end] == 0 {
				s.size++
			}
			s.nodeDeg[end]++
		}
	}
	sc.Log, sc.Removed = sc.Log[:top[0]], sc.Removed[:top[1]]
}
