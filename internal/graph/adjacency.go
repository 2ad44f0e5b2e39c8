package graph

// This file defines the adjacency-access interfaces every consumer of graph
// topology goes through. Historically the algorithms reached straight into
// the exported CSR slices of a heap *Graph; the interfaces decouple them
// from the backing so the same code serves a heap CSR, a zero-copy mmap'd
// snapshot (a *Graph whose slices alias the page cache), or a mutation
// Overlay.
//
// The central contract is NeighborsInto: neighbor-range iteration into
// caller scratch. A *Graph (heap or mapped) returns an alias and never
// touches the scratch, so the hot paths stay zero-copy and zero-alloc; an
// Overlay merges its deltas into *buf, growing it as needed. Callers that
// hold two neighbor lists at once must pass two distinct buffers.

// Adjacency is read-only access to graph structure. *Graph and *Overlay
// are its implementations outside tests. Implementations must be safe for
// concurrent readers as long as each goroutine uses its own scratch
// buffers.
type Adjacency interface {
	// NumNodes returns the number of nodes; IDs are dense in [0, NumNodes).
	NumNodes() int
	// NumEdges returns the number of undirected edges.
	NumEdges() int
	// Degree returns the degree of v in O(1).
	Degree(v NodeID) int
	// NeighborsInto returns v's sorted neighbor list. Backings that hold the
	// list contiguously return an alias into their storage and ignore buf;
	// backings that must decode write into *buf (growing it, persisting the
	// growth for reuse) and return the decoded prefix. In both cases the
	// result is read-only and valid only until the next NeighborsInto call
	// with the same buf. Callers must not store the result back into the
	// buffer variable they passed.
	NeighborsInto(buf *[]NodeID, v NodeID) []NodeID
	// HasEdge reports whether the edge (u,v) exists.
	HasEdge(u, v NodeID) bool
}

// AttrSource is read-only access to node attribute columns and the token
// dictionary resolving textual attribute IDs.
type AttrSource interface {
	// NumDim returns the width of the numerical attribute vector.
	NumDim() int
	// TextAttrs returns v's sorted textual token IDs. The slice aliases
	// backing storage and must not be modified.
	TextAttrs(v NodeID) []int32
	// NumAttrs returns v's numerical attribute vector (nil when NumDim is
	// 0). The slice aliases backing storage and must not be modified.
	NumAttrs(v NodeID) []float64
	// Dict returns the token dictionary.
	Dict() *Dict
}

// Store is the full serving surface of an immutable graph backing:
// structure plus attribute columns. The engine, catalog and
// query layers hold a Store; *Graph, on the heap or over a mapped snapshot,
// implements it.
type Store interface {
	Adjacency
	AttrSource
}

// Compile-time interface checks for the in-package backings.
var (
	_ Store     = (*Graph)(nil)
	_ Adjacency = (*Overlay)(nil)
)

// NeighborsInto implements Adjacency. The heap CSR holds every list
// contiguously, so it returns an alias into internal storage and never
// touches buf — identical cost to Neighbors.
func (g *Graph) NeighborsInto(buf *[]NodeID, v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsInto implements Adjacency for the overlay by merging the base
// list with the pending deltas into *buf. Untouched base-node lists are
// returned as aliases of the base backing without copying.
func (o *Overlay) NeighborsInto(buf *[]NodeID, v NodeID) []NodeID {
	if int(v) < o.base.NumNodes() && !o.Touched(v) {
		return o.base.NeighborsInto(buf, v)
	}
	*buf = o.AppendNeighbors((*buf)[:0], v)
	return *buf
}

// CopyStore materializes s into a heap *Graph, decoding every neighbor list
// and copying every attribute row. A *Graph passes through unchanged (no
// copy). It is the export path for any other backing: snapshot writing
// always operates on a *Graph.
func CopyStore(s Store) *Graph {
	if g, ok := s.(*Graph); ok {
		return g
	}
	n := s.NumNodes()
	offsets := make([]int32, n+1)
	adj := make([]NodeID, 0, 2*s.NumEdges())
	var scratch []NodeID
	for v := 0; v < n; v++ {
		adj = append(adj, s.NeighborsInto(&scratch, NodeID(v))...)
		offsets[v+1] = int32(len(adj))
	}
	textOff := make([]int32, n+1)
	text := []int32{}
	for v := 0; v < n; v++ {
		text = append(text, s.TextAttrs(NodeID(v))...)
		textOff[v+1] = int32(len(text))
	}
	dim := s.NumDim()
	num := make([]float64, n*dim)
	for v := 0; v < n; v++ {
		copy(num[v*dim:(v+1)*dim], s.NumAttrs(NodeID(v)))
	}
	return &Graph{
		offsets: offsets,
		adj:     adj,
		textOff: textOff,
		text:    text,
		numDim:  dim,
		num:     num,
		dict:    s.Dict(),
	}
}
