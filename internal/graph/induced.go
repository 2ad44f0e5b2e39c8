package graph

import "slices"

// SubScratch holds the reusable buffers for InducedStructureOf: the
// full-graph-sized epoch-stamped membership set and remap, the CSR arrays
// of the induced subgraph, and the Graph header itself. One scratch
// supports one live induced subgraph at a time — the next InducedStructureOf
// call on the same scratch overwrites the previous result. The zero value
// is ready to use.
type SubScratch struct {
	in    NodeSet // stamped membership; remap[v] valid iff in.Has(v)
	remap []int32 // remap[v] = induced ID of v

	orig    []NodeID
	nbuf    []NodeID // neighbor-decode scratch for non-aliasing backings
	offsets []int32
	adj     []NodeID
	textOff []int32 // all-zero textOff so TextAttrs works on the sub graph
	sub     Graph
}

// InducedStructureOf builds the structure-only subgraph of any Adjacency
// backing induced by nodes: its edges as CSR adjacency, but no attribute
// copying and a nil dictionary (extraction only ever reads adjacency from an
// induced graph — attribute distances are looked up through the returned
// orig mapping on the parent graph). SEA no longer
// induces its sample (kcore.MaximalSubIn and truss.MaximalSubIn extract from
// its membership on the parent's IDs); this is the from-scratch reference its
// tests compare against, and what benchmark/trace.go times. All storage comes from sc — the neighbor lists of a decoding
// backing included — so in the steady state the call performs no allocation.
//
// The returned Graph and orig slice alias sc and are valid until the next
// InducedStructureOf call on the same scratch. nodes must contain no
// duplicates and is not modified; the induced IDs follow ascending original
// ID order, so neighbor lists are sorted without a per-list sort.
func InducedStructureOf(g Adjacency, nodes []NodeID, sc *SubScratch) (*Graph, []NodeID) {
	n := g.NumNodes()
	k := len(nodes)
	sc.in.Reset(n)
	if n > len(sc.remap) {
		sc.remap = make([]int32, n)
	}

	sc.orig = append(sc.orig[:0], nodes...)
	slices.Sort(sc.orig)
	for i, v := range sc.orig {
		sc.in.Add(v)
		sc.remap[v] = int32(i)
	}

	if cap(sc.offsets) < k+1 {
		sc.offsets = make([]int32, k+1)
		sc.textOff = make([]int32, k+1)
	}
	sc.offsets = sc.offsets[:k+1]
	sc.textOff = sc.textOff[:k+1]
	sc.offsets[0] = 0

	sc.adj = sc.adj[:0]
	for i, v := range sc.orig {
		for _, u := range g.NeighborsInto(&sc.nbuf, v) {
			if sc.in.Has(u) {
				sc.adj = append(sc.adj, sc.remap[u])
			}
		}
		sc.offsets[i+1] = int32(len(sc.adj))
	}

	sc.sub = Graph{
		offsets: sc.offsets,
		adj:     sc.adj,
		textOff: sc.textOff,
		numDim:  0,
	}
	return &sc.sub, sc.orig
}
