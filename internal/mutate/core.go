package mutate

import "repro/internal/graph"

// Incremental coreness maintenance. After inserting or deleting one edge
// (u,v), let r = min(core(u), core(v)). Only nodes of coreness r that are
// reachable from the minimum-side endpoint(s) through nodes of coreness r —
// the endpoints' subcore — can change, and each by exactly 1 (up on
// insertion, down on deletion). Both updates collect that scope with a BFS
// over the overlay and resolve it with one cascading eviction (settle),
// never touching the rest of the graph.

// coreInsert updates the coreness copy for the already-applied edge (u,v):
// the subcore candidates that sustain degree r+1 are promoted to r+1.
func (s *Session) coreInsert(u, v graph.NodeID) {
	r, stays := s.settle(u, v, 1)
	for x, ok := range stays {
		if ok {
			s.core[x] = r + 1
			s.structural[x] = struct{}{}
		}
	}
}

// coreRemove updates the coreness copy for the already-removed edge (u,v):
// the subcore candidates that cannot sustain degree r drop to r−1.
func (s *Session) coreRemove(u, v graph.NodeID) {
	r, stays := s.settle(u, v, 0)
	for x, ok := range stays {
		if !ok {
			s.core[x] = r - 1
			s.structural[x] = struct{}{}
		}
	}
}

// settle returns r = min(core(u), core(v)) and the endpoints' subcore — the
// coreness-r nodes reachable from the coreness-r endpoint(s) through
// coreness-r nodes — each candidate mapped to whether it keeps r+extra
// neighbours of coreness ≥ r once every candidate that does not has been
// evicted, with cascade. A coreness-r neighbour of a candidate is itself a
// candidate (it is adjacent, so the BFS reached it), so those neighbours are
// the higher-coreness nodes and the surviving candidates.
func (s *Session) settle(u, v graph.NodeID, extra int32) (int32, map[graph.NodeID]bool) {
	core := s.core
	r := min(core[u], core[v])
	var queue []graph.NodeID
	stays := make(map[graph.NodeID]bool)
	for _, x := range [2]graph.NodeID{u, v} {
		if core[x] == r && !stays[x] {
			stays[x] = true
			queue = append(queue, x)
		}
	}
	for i := 0; i < len(queue); i++ {
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], queue[i])
		for _, w := range s.nbuf {
			if core[w] == r && !stays[w] {
				stays[w] = true
				queue = append(queue, w)
			}
		}
	}
	// Two passes: every degree is counted against the full candidate set
	// before the first eviction, so a neighbour's eviction is accounted
	// exactly once (by the cascade's decrement).
	need := int(r + extra)
	deg := make(map[graph.NodeID]int, len(queue))
	for _, x := range queue {
		n := 0
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if core[w] >= r {
				n++
			}
		}
		deg[x] = n
	}
	var evict []graph.NodeID
	for _, x := range queue {
		if deg[x] < need {
			stays[x] = false
			evict = append(evict, x)
		}
	}
	for len(evict) > 0 {
		x := evict[len(evict)-1]
		evict = evict[:len(evict)-1]
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], x)
		for _, w := range s.nbuf {
			if stays[w] {
				if deg[w]--; deg[w] < need {
					stays[w] = false
					evict = append(evict, w)
				}
			}
		}
	}
	return r, stays
}
