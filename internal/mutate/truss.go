package mutate

import (
	"repro/internal/graph"
	"repro/internal/truss"
)

// Incremental trussness maintenance. Influence of one edge mutation spreads
// only through shared triangles, and only below a level bound:
//
//   - inserting e can raise an edge's trussness by at most 1, and only for
//     edges of trussness < ub = 2+support(e) (a triangle through e supports
//     its edges at levels ≤ truss(e) ≤ ub);
//   - deleting e can lower an edge's trussness by at most 1, and only for
//     edges of trussness ≤ r = truss(e).
//
// The affected scope is therefore the set of below-bound edges reachable
// from the mutated edge (insertion) or from the edges of its triangles
// (deletion) via triangle adjacency, stopping at — but counting — boundary
// edges at or above the bound. The scope is re-peeled by truss.Peel, the
// peel of truss.Decompose, with every boundary edge pinned at its known
// trussness.

// trussInsert maintains the per-edge trussness table for the already-applied
// edge (u,v).
func (s *Session) trussInsert(u, v graph.NodeID) {
	e := EdgeOf(u, v)
	ub := int32(len(s.commonNeighbors(u, v))) + 2
	s.etruss[e] = 2 // placeholder so scope lookups see the edge; the peel fixes it
	s.localPeel(s.trussScope([]Edge{e}, func(t int32) bool { return t < ub }))
}

// trussRemove maintains the table for the already-removed edge (u,v). seeds
// are the edges of the triangles that went through (u,v), enumerated by the
// caller before the removal.
func (s *Session) trussRemove(u, v graph.NodeID, seeds []Edge) {
	e := EdgeOf(u, v)
	r, ok := s.etruss[e]
	if !ok {
		r = 2
	}
	delete(s.etruss, e)
	if len(seeds) == 0 {
		return
	}
	s.localPeel(s.trussScope(seeds, func(t int32) bool { return t <= r }))
}

// edgeScope is the affected edge scope of one mutation: the scope edges in
// BFS order (scope[f] is f's index), the pinned boundary with its known
// trussness, and the triangle apexes of every scope edge, enumerated once by
// the BFS and read again by the peel: scope edge i's apexes are
// tri[triOff[i]:triOff[i+1]].
type edgeScope struct {
	scope    map[Edge]int
	boundary map[Edge]int32
	tri      []graph.NodeID
	triOff   []int
}

// trussScope collects the affected edge scope: starting from the seed edges,
// it BFSes over triangle adjacency in the overlay, expanding through edges
// whose current trussness satisfies inScope and recording the rest as
// pinned boundary. Seeds failing inScope become boundary themselves.
func (s *Session) trussScope(seeds []Edge, inScope func(int32) bool) *edgeScope {
	sc := &edgeScope{scope: make(map[Edge]int), boundary: make(map[Edge]int32), triOff: []int{0}}
	var queue []Edge
	classify := func(f Edge) {
		if _, ok := sc.scope[f]; ok {
			return
		}
		if _, ok := sc.boundary[f]; ok {
			return
		}
		t := s.etruss[f]
		if inScope(t) {
			sc.scope[f] = len(sc.scope)
			queue = append(queue, f)
		} else {
			sc.boundary[f] = t
		}
	}
	for _, f := range seeds {
		classify(f)
	}
	for i := 0; i < len(queue); i++ {
		f := queue[i]
		for _, z := range s.commonNeighbors(f.U, f.V) {
			sc.tri = append(sc.tri, z)
			classify(EdgeOf(f.U, z))
			classify(EdgeOf(f.V, z))
		}
		sc.triOff = append(sc.triOff, len(sc.tri))
	}
	return sc
}

// localPeel recomputes the trussness of every scope edge by truss.Peel
// restricted to the scope, with boundary edges pinned at their known level.
// Triangle enumeration runs on the overlay, and every edge of a triangle
// containing a scope edge is itself scope or boundary (the BFS closure), so
// the peel sees exactly the triangles the global peel would.
func (s *Session) localPeel(sc *edgeScope) {
	nScope := len(sc.scope)
	if nScope == 0 {
		return
	}
	total := nScope + len(sc.boundary)
	edges := make([]Edge, total)
	pinned := make([]bool, total)
	cur := make([]int32, total)
	// id indexes every edge of the peel: scope edges keep their BFS index
	// and support, boundary edges follow at their pinned level.
	id := sc.scope
	for f, i := range id {
		edges[i] = f
		cur[i] = int32(sc.triOff[i+1] - sc.triOff[i])
	}
	i := nScope
	for f, t := range sc.boundary {
		edges[i] = f
		pinned[i] = true
		cur[i] = max(t-2, 0)
		id[f] = i
		i++
	}
	triangles := func(dst []int32, e int32, alive []bool) []int32 {
		f := edges[e]
		var apexes []graph.NodeID
		if int(e) < nScope {
			apexes = sc.tri[sc.triOff[e]:sc.triOff[e+1]]
		} else {
			apexes = s.commonNeighbors(f.U, f.V) // a pinned boundary edge
		}
		for _, z := range apexes {
			e1, ok1 := id[EdgeOf(f.U, z)]
			e2, ok2 := id[EdgeOf(f.V, z)]
			if ok1 && ok2 && alive[e1] && alive[e2] {
				dst = append(dst, int32(e1), int32(e2))
			}
		}
		return dst
	}
	truss.Peel(cur, pinned, triangles, func(e, t int32) {
		f := edges[e]
		if old, ok := s.etruss[f]; ok && old == t {
			return
		}
		// The edge's trussness moved: its endpoints' node-level index
		// changes, so they join the affected region.
		s.etruss[f] = t
		s.structural[f.U] = struct{}{}
		s.structural[f.V] = struct{}{}
		s.trussDirty[f.U] = struct{}{}
		s.trussDirty[f.V] = struct{}{}
	})
}
