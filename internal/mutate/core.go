package mutate

import "repro/internal/graph"

// Incremental coreness maintenance. After inserting or deleting one edge
// (u,v), let r = min(core(u), core(v)). Only nodes of coreness r that are
// reachable from the minimum-side endpoint(s) through nodes of coreness r —
// the endpoints' subcore — can change, and each by exactly 1 (up on
// insertion, down on deletion). Both updates collect that scope with a BFS
// over the overlay and resolve it with a cascading eviction, never touching
// the rest of the graph.

// subcore returns r = min(core(u), core(v)) and the endpoints' subcore: the
// coreness-r nodes reachable from the coreness-r endpoint(s) through
// coreness-r nodes, in BFS order (queue) and as a membership set (cand).
func (s *Session) subcore(u, v graph.NodeID) (int32, []graph.NodeID, map[graph.NodeID]bool) {
	core := s.core
	r := min(core[u], core[v])
	var queue []graph.NodeID
	cand := make(map[graph.NodeID]bool)
	for _, x := range [2]graph.NodeID{u, v} {
		if core[x] == r && !cand[x] {
			cand[x] = true
			queue = append(queue, x)
		}
	}
	for i := 0; i < len(queue); i++ {
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], queue[i])
		for _, w := range s.nbuf {
			if core[w] == r && !cand[w] {
				cand[w] = true
				queue = append(queue, w)
			}
		}
	}
	return r, queue, cand
}

// coreInsert updates the coreness copy for the already-applied edge (u,v):
// the subcore candidates that can sustain degree r+1 within the candidate
// set (counting neighbors of higher coreness) are promoted to r+1.
func (s *Session) coreInsert(u, v graph.NodeID) {
	core := s.core
	r, queue, cand := s.subcore(u, v)
	// Eligible degree: neighbors that could co-exist in an (r+1)-core —
	// higher-coreness nodes and surviving candidates. (A coreness-r neighbor
	// of a candidate is itself a candidate: it is adjacent, so the BFS
	// reached it.)
	// Two passes: every eligible degree is computed against the full
	// candidate set before the first eviction, so a neighbor's eviction is
	// accounted exactly once (by the cascade's decrement).
	deg := make(map[graph.NodeID]int, len(queue))
	for _, x := range queue {
		n := 0
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if core[w] > r || cand[w] {
				n++
			}
		}
		deg[x] = n
	}
	var evict []graph.NodeID
	for _, x := range queue {
		if deg[x] < int(r)+1 {
			evict = append(evict, x)
			cand[x] = false
		}
	}
	for len(evict) > 0 {
		x := evict[len(evict)-1]
		evict = evict[:len(evict)-1]
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if cand[w] {
				deg[w]--
				if deg[w] < int(r)+1 {
					cand[w] = false
					evict = append(evict, w)
				}
			}
		}
	}
	for x, alive := range cand {
		if alive {
			core[x] = r + 1
			s.structural[x] = struct{}{}
		}
	}
}

// coreRemove updates the coreness copy for the already-removed edge (u,v):
// subcore candidates whose support (neighbors of coreness ≥ r, surviving
// candidates included) falls below r cascade down to r−1.
func (s *Session) coreRemove(u, v graph.NodeID) {
	core := s.core
	r, queue, cand := s.subcore(u, v)
	if r == 0 {
		return
	}
	sup := make(map[graph.NodeID]int, len(queue))
	var evict []graph.NodeID
	for _, x := range queue {
		n := 0
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if core[w] >= r {
				n++
			}
		}
		sup[x] = n
		if n < int(r) {
			evict = append(evict, x)
			cand[x] = false
		}
	}
	for len(evict) > 0 {
		x := evict[len(evict)-1]
		evict = evict[:len(evict)-1]
		core[x] = r - 1
		s.structural[x] = struct{}{}
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if cand[w] {
				sup[w]--
				if sup[w] < int(r) {
					cand[w] = false
					evict = append(evict, w)
				}
			}
		}
	}
}
