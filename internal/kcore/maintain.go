package kcore

import (
	"fmt"

	"repro/internal/cohesive"
	"repro/internal/graph"
	"repro/internal/ws"
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
	mark     []bool // component marks, all false between calls

	// sc owns every array above and the buffers that grow in use (cascade
	// stack, component queue, neighbor-decode scratch), reached through it.
	sc *ws.KCoreScratch
}

// NewSub builds a maintenance structure over the nodes of members, which must
// already form a connected k-core containing q (e.g. the output of
// MaximalConnectedKCore). The structure owns its arrays.
func NewSub(g graph.Adjacency, q graph.NodeID, k int, members []graph.NodeID) (*Sub, error) {
	return NewSubOn(new(ws.KCoreScratch), g, q, k, members)
}

// NewSubOn is NewSub with every array drawn from sc, sized to the graph once
// and reused: the returned Sub is valid until the next NewSubOn on sc, which
// clears the flags this one leaves behind.
func NewSubOn(sc *ws.KCoreScratch, g graph.Adjacency, q graph.NodeID, k int, members []graph.NodeID) (*Sub, error) {
	if n := g.NumNodes(); len(sc.Alive) < n {
		sc.Alive, sc.Mark, sc.Deg = make([]bool, n), make([]bool, n), make([]int32, n)
	} else {
		for _, v := range sc.Universe {
			sc.Alive[v] = false
		}
	}
	sc.Universe = append(sc.Universe[:0], members...)
	s := &Sub{g: g, k: k, q: q, universe: sc.Universe, alive: sc.Alive, deg: sc.Deg, mark: sc.Mark, sc: sc}
	for _, v := range members {
		s.alive[v] = true
	}
	if !s.alive[q] {
		return nil, fmt.Errorf("kcore: query node %d not in member set", q)
	}
	for _, v := range members {
		d := int32(0)
		for _, u := range g.NeighborsInto(&sc.Nbr, v) {
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
	for _, u := range s.g.NeighborsInto(&s.sc.Nbr, v) {
		if !s.alive[u] {
			continue
		}
		s.deg[u]--
		if int(s.deg[u]) < s.k {
			s.sc.Stack = append(s.sc.Stack, u)
		}
	}
}

// RemoveCascade deletes v, cascades degree violations, and restricts the
// result to the query's connected component. See cohesive.Maintainer.
func (s *Sub) RemoveCascade(v graph.NodeID) (removed []graph.NodeID, qAlive bool) {
	if !s.alive[v] {
		return nil, s.alive[s.q]
	}
	sc := s.sc
	sc.Stack = sc.Stack[:0]
	s.kill(v, &removed)
	for len(sc.Stack) > 0 {
		u := sc.Stack[len(sc.Stack)-1]
		sc.Stack = sc.Stack[:len(sc.Stack)-1]
		if s.alive[u] {
			s.kill(u, &removed)
		}
	}
	if !s.alive[s.q] {
		return removed, false
	}
	// Restrict to q's component: mark reachable alive nodes, kill the rest.
	comp := append(sc.Comp[:0], s.q)
	s.mark[s.q] = true
	for i := 0; i < len(comp); i++ {
		for _, u := range s.g.NeighborsInto(&sc.Nbr, comp[i]) {
			if s.alive[u] && !s.mark[u] {
				s.mark[u] = true
				comp = append(comp, u)
			}
		}
	}
	sc.Comp = comp
	if len(comp) != s.size {
		// Kill alive nodes outside the component. Their removal cannot push
		// component members below k (no edges cross between components), but
		// cascades inside the discarded part are irrelevant: kill them all.
		for _, w := range s.universe {
			if s.alive[w] && !s.mark[w] {
				s.alive[w] = false
				s.size--
				removed = append(removed, w)
				for _, u := range s.g.NeighborsInto(&sc.Nbr, w) {
					if s.alive[u] {
						s.deg[u]--
					}
				}
			}
		}
	}
	for _, u := range comp {
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
		for _, u := range s.g.NeighborsInto(&s.sc.Nbr, w) {
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
