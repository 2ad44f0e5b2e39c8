package main

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mutate"
)

// mutGen generates a stationary, order-independent stream of single-delta
// mutations over a generated dataset:
//
//   - add_edge only between two nodes of one planted community that are not
//     adjacent in the original graph;
//   - remove_edge only of original edges;
//   - every edge is used at most once;
//   - set_attr replaces a node's textual tokens with tags from a fixed pool.
//
// An added edge is never an original one and a removed edge always is, so
// the deltas are valid in any interleaving. Edits stay inside communities,
// so the planted k-cores neither fuse nor dissolve and the cost of a read
// miss does not drift with the length of the run. (Uniform-random inserts
// fuse the communities into one giant core: per-miss cost then grows with
// every mutation and the metric measures run length, not the program.)
type mutGen struct {
	rng       *rand.Rand
	ds        *dataset.Generated
	removable []mutate.Edge // original edges in shuffled order, consumed from the front
	added     map[mutate.Edge]bool
}

const (
	tagPoolSize   = 64
	tagsPerUpdate = 4
)

func newMutGen(ds *dataset.Generated, seed int64) *mutGen {
	g := ds.Graph
	m := &mutGen{rng: rand.New(rand.NewSource(seed)), ds: ds, added: make(map[mutate.Edge]bool)}
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				m.removable = append(m.removable, mutate.Edge{U: u, V: v})
			}
		}
	}
	m.rng.Shuffle(len(m.removable), func(i, j int) {
		m.removable[i], m.removable[j] = m.removable[j], m.removable[i]
	})
	return m
}

// next returns the next mutation: 40% set_attr, 30% add_edge, 30% remove_edge.
func (m *mutGen) next() (opKind, mutate.Delta) {
	switch p := m.rng.Intn(10); {
	case p < 4:
		return opSetAttr, m.setAttr()
	case p < 7:
		return opAddEdge, m.addEdge()
	default:
		return opRemoveEdge, m.removeEdge()
	}
}

func (m *mutGen) setAttr() mutate.Delta {
	v := graph.NodeID(m.rng.Intn(m.ds.Graph.NumNodes()))
	tags := make([]string, 0, tagsPerUpdate)
	for _, t := range m.rng.Perm(tagPoolSize)[:tagsPerUpdate] {
		tags = append(tags, fmt.Sprintf("tag%02d", t))
	}
	return mutate.SetAttr(v, tags, nil)
}

func (m *mutGen) addEdge() mutate.Delta {
	g := m.ds.Graph
	for {
		u := graph.NodeID(m.rng.Intn(g.NumNodes()))
		members := m.ds.Communities[m.ds.CommunityOf[u]]
		v := members[m.rng.Intn(len(members))]
		e := mutate.EdgeOf(u, v)
		if u == v || g.HasEdge(u, v) || m.added[e] {
			continue // a planted community is far from a clique, so this ends
		}
		m.added[e] = true
		return mutate.AddEdge(e.U, e.V)
	}
}

func (m *mutGen) removeEdge() mutate.Delta {
	if len(m.removable) == 0 {
		panic("mutgen: more remove_edge deltas asked for than the graph has edges")
	}
	e := m.removable[0]
	m.removable = m.removable[1:]
	return mutate.RemoveEdge(e.U, e.V)
}
