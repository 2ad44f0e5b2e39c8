package mutate

import "repro/internal/graph"

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
// edges at or above the bound. The scope is re-peeled locally with the same
// bucket peeling as truss.Decompose, with every boundary edge pinned at its
// known trussness: it enters the buckets at support t−2, is never
// decremented, and still decrements its in-scope triangle partners when the
// peel passes its level — exactly how the global peel treats it.

// trussInsert maintains the per-edge trussness table for the already-applied
// edge (u,v).
func (s *Session) trussInsert(u, v graph.NodeID) {
	e := EdgeOf(u, v)
	ub := int32(len(s.commonNeighbors(u, v))) + 2
	s.setTruss(e, 2) // placeholder so scope lookups see the edge; peel fixes it
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
	s.deleteTruss(e)
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

// localPeel recomputes the trussness of every scope edge by support peeling
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
		if t >= 2 {
			cur[i] = t - 2
		}
		id[f] = i
		i++
	}
	maxSup := int32(0)
	for _, c := range cur {
		maxSup = max(maxSup, c)
	}

	// Bucket peel, the same lazy-invalidation scheme as truss.Decompose.
	buckets := make([][]int32, maxSup+1)
	for i := 0; i < total; i++ {
		buckets[cur[i]] = append(buckets[cur[i]], int32(i))
	}
	removed := make([]bool, total)
	k := int32(0)
	for processed := 0; processed < total; processed++ {
		// No live entry sits below the current level k: k only rises to a
		// popped support, taken from the lowest non-empty bucket, and after
		// that unpinned supports are clamped at k while pinned ones, never
		// decremented, stay where they entered — so the scan starts at k.
		var e int32 = -1
		for sup := k; sup <= maxSup && e < 0; sup++ {
			for len(buckets[sup]) > 0 {
				cand := buckets[sup][len(buckets[sup])-1]
				buckets[sup] = buckets[sup][:len(buckets[sup])-1]
				if removed[cand] || cur[cand] != sup {
					continue
				}
				e = cand
				break
			}
		}
		if e < 0 {
			break
		}
		if cur[e] > k {
			k = cur[e]
		}
		removed[e] = true
		f := edges[e]
		if !pinned[e] {
			if s.setTruss(f, k+2) {
				// The edge's trussness moved: its endpoints' node-level
				// index changes, so they join the affected region.
				s.structural[f.U] = struct{}{}
				s.structural[f.V] = struct{}{}
				s.trussDirty[f.U] = struct{}{}
				s.trussDirty[f.V] = struct{}{}
			}
		}
		var apexes []graph.NodeID
		if int(e) < nScope {
			apexes = sc.tri[sc.triOff[e]:sc.triOff[e+1]]
		} else {
			apexes = s.commonNeighbors(f.U, f.V) // a pinned boundary edge
		}
		for _, z := range apexes {
			e1, ok1 := id[EdgeOf(f.U, z)]
			e2, ok2 := id[EdgeOf(f.V, z)]
			if !ok1 || !ok2 || removed[e1] || removed[e2] {
				continue
			}
			for _, t := range [2]int{e1, e2} {
				if !pinned[t] && cur[t] > k {
					cur[t]--
					buckets[cur[t]] = append(buckets[cur[t]], int32(t))
				}
			}
		}
	}
}

// setTruss writes t for edge f, recording the pre-batch value once, and
// reports whether the stored value changed.
func (s *Session) setTruss(f Edge, t int32) bool {
	old, existed := s.etruss[f]
	if _, logged := s.undo[f]; !logged {
		if existed {
			v := old
			s.undo[f] = &v
		} else {
			s.undo[f] = nil
		}
	}
	if existed && old == t {
		return false
	}
	s.etruss[f] = t
	return true
}

// deleteTruss removes edge f's entry, recording the pre-batch value once.
func (s *Session) deleteTruss(f Edge) {
	if _, logged := s.undo[f]; !logged {
		if old, ok := s.etruss[f]; ok {
			v := old
			s.undo[f] = &v
		} else {
			s.undo[f] = nil
		}
	}
	delete(s.etruss, f)
	s.trussDirty[f.U] = struct{}{}
	s.trussDirty[f.V] = struct{}{}
}
