package kcore

import (
	"fmt"

	"repro/internal/cohesive"
	"repro/internal/graph"
)

var _ cohesive.Maintainer = (*Sub)(nil)

// Sub maintains a connected k-core containing a query node under node
// deletions with rollback. It implements cohesive.Maintainer.
type Sub struct {
	g        graph.Adjacency
	k        int
	q        graph.NodeID
	universe []graph.NodeID // the initial member set; alive ⊆ universe
	alive    []bool
	deg      []int32 // degree within the alive set; valid only for alive nodes
	size     int

	// scratch buffers reused across operations
	stack []graph.NodeID
	mark  []bool
	comp  []graph.NodeID
	nbr   []graph.NodeID // neighbor-decode scratch for non-aliasing backings
}

// NewSub builds a maintenance structure over the nodes of members, which must
// already form a connected k-core containing q (e.g. the output of
// MaximalConnectedKCore).
func NewSub(g graph.Adjacency, q graph.NodeID, k int, members []graph.NodeID) (*Sub, error) {
	n := g.NumNodes()
	s := &Sub{
		g:        g,
		k:        k,
		q:        q,
		universe: append([]graph.NodeID(nil), members...),
		alive:    make([]bool, n),
		deg:      make([]int32, n),
		mark:     make([]bool, n),
	}
	for _, v := range members {
		s.alive[v] = true
	}
	if !s.alive[q] {
		return nil, fmt.Errorf("kcore: query node %d not in member set", q)
	}
	for _, v := range members {
		d := int32(0)
		for _, u := range g.NeighborsInto(&s.nbr, v) {
			if s.alive[u] {
				d++
			}
		}
		if int(d) < k {
			return nil, fmt.Errorf("kcore: node %d has in-set degree %d < k=%d", v, d, k)
		}
		s.deg[v] = d
	}
	s.size = len(members)
	return s, nil
}

// Query returns the query node.
func (s *Sub) Query() graph.NodeID { return s.q }

// Size returns the number of alive nodes.
func (s *Sub) Size() int { return s.size }

// Alive reports whether v is in the current subgraph.
func (s *Sub) Alive(v graph.NodeID) bool { return s.alive[v] }

// Members appends alive nodes to dst and returns it. O(initial members),
// not O(graph).
func (s *Sub) Members(dst []graph.NodeID) []graph.NodeID {
	for _, v := range s.universe {
		if s.alive[v] {
			dst = append(dst, v)
		}
	}
	return dst
}

// Universe returns the initial member set the structure was built over.
// The returned slice must not be modified.
func (s *Sub) Universe() []graph.NodeID { return s.universe }

// kill removes v from the alive set, decrements neighbor degrees, and pushes
// neighbors that fell below k onto the cascade stack.
func (s *Sub) kill(v graph.NodeID, removed *[]graph.NodeID) {
	s.alive[v] = false
	s.size--
	*removed = append(*removed, v)
	for _, u := range s.g.NeighborsInto(&s.nbr, v) {
		if !s.alive[u] {
			continue
		}
		s.deg[u]--
		if int(s.deg[u]) < s.k {
			s.stack = append(s.stack, u)
		}
	}
}

// RemoveCascade deletes v, cascades degree violations, and restricts the
// result to the query's connected component. See cohesive.Maintainer.
func (s *Sub) RemoveCascade(v graph.NodeID) (removed []graph.NodeID, qAlive bool) {
	if !s.alive[v] {
		return nil, s.alive[s.q]
	}
	s.stack = s.stack[:0]
	s.kill(v, &removed)
	for len(s.stack) > 0 {
		u := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.alive[u] {
			s.kill(u, &removed)
		}
	}
	if !s.alive[s.q] {
		return removed, false
	}
	// Restrict to q's component: mark reachable alive nodes, kill the rest.
	s.comp = s.comp[:0]
	s.comp = append(s.comp, s.q)
	s.mark[s.q] = true
	for i := 0; i < len(s.comp); i++ {
		for _, u := range s.g.NeighborsInto(&s.nbr, s.comp[i]) {
			if s.alive[u] && !s.mark[u] {
				s.mark[u] = true
				s.comp = append(s.comp, u)
			}
		}
	}
	if len(s.comp) != s.size {
		// Kill alive nodes outside the component. Their removal cannot push
		// component members below k (no edges cross between components), but
		// cascades inside the discarded part are irrelevant: kill them all.
		for _, w := range s.universe {
			if s.alive[w] && !s.mark[w] {
				s.alive[w] = false
				s.size--
				removed = append(removed, w)
				for _, u := range s.g.NeighborsInto(&s.nbr, w) {
					if s.alive[u] {
						s.deg[u]--
					}
				}
			}
		}
	}
	for _, u := range s.comp {
		s.mark[u] = false
	}
	return removed, true
}

// Restore re-inserts nodes removed by RemoveCascade, most recent first.
func (s *Sub) Restore(removed []graph.NodeID) {
	for i := len(removed) - 1; i >= 0; i-- {
		w := removed[i]
		s.alive[w] = true
		s.size++
		d := int32(0)
		for _, u := range s.g.NeighborsInto(&s.nbr, w) {
			if s.alive[u] {
				d++
				if u != w {
					s.deg[u]++
				}
			}
		}
		s.deg[w] = d
	}
}

// Clone returns a deep copy sharing only the immutable graph. Used by the
// clone-vs-rollback ablation benchmark.
func (s *Sub) Clone() *Sub {
	c := &Sub{
		g:        s.g,
		k:        s.k,
		q:        s.q,
		universe: s.universe,
		alive:    append([]bool(nil), s.alive...),
		deg:      append([]int32(nil), s.deg...),
		mark:     make([]bool, len(s.mark)),
		size:     s.size,
	}
	return c
}
