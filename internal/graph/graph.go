// Package graph provides the attributed homogeneous graph substrate used by
// every community-search algorithm in this repository.
//
// A Graph is an immutable undirected graph in CSR (compressed sparse row)
// form. Each node carries a set of textual attributes (interned to integer
// token IDs through a Dict) and a fixed-width vector of numerical attributes.
// Graphs are assembled through a Builder and frozen with Build; the frozen
// form is safe for concurrent readers.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node. IDs are dense in [0, NumNodes).
type NodeID = int32

// Graph is an immutable undirected attributed graph in CSR form.
type Graph struct {
	offsets []int32  // len = n+1
	adj     []NodeID // len = 2*m, neighbor lists sorted ascending

	// Textual attributes: token IDs per node, sorted ascending.
	textOff []int32
	text    []int32

	// Numerical attributes: NumDim values per node, row-major.
	numDim int
	num    []float64

	dict *Dict
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// NumDim returns the width of the numerical attribute vector.
func (g *Graph) NumDim() int { return g.numDim }

// Dict returns the token dictionary for textual attributes.
func (g *Graph) Dict() *Dict { return g.dict }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// HasEdge reports whether the edge (u,v) exists. O(log deg(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// TextAttrs returns the sorted token IDs of v's textual attributes.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) TextAttrs(v NodeID) []int32 {
	return g.text[g.textOff[v]:g.textOff[v+1]]
}

// NumAttrs returns v's numerical attribute vector.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) NumAttrs(v NodeID) []float64 {
	if g.numDim == 0 {
		return nil
	}
	return g.num[int(v)*g.numDim : (int(v)+1)*g.numDim]
}

// MaxDegree returns the maximum degree in the graph (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(n)
}

// Builder assembles a Graph. The zero value is not usable; call NewBuilder.
type Builder struct {
	n      int
	numDim int
	edges  [][2]NodeID
	text   [][]int32
	num    [][]float64
	dict   *Dict
}

// NewBuilder returns a Builder for a graph with n nodes and numDim numerical
// attribute dimensions per node.
func NewBuilder(n, numDim int) *Builder {
	return &Builder{
		n:      n,
		numDim: numDim,
		text:   make([][]int32, n),
		num:    make([][]float64, n),
		dict:   NewDict(),
	}
}

// NumNodes returns the number of nodes the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// Dict returns the builder's token dictionary.
func (b *Builder) Dict() *Dict { return b.dict }

// SetDict replaces the builder's token dictionary. Use it when token IDs
// passed to SetTextTokens were interned elsewhere (e.g. projecting a
// heterogeneous graph), so the built graph resolves them to the right names.
func (b *Builder) SetDict(d *Dict) { b.dict = d }

// AddEdge records an undirected edge between u and v. Self-loops and
// duplicate edges are dropped at Build time.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, [2]NodeID{u, v})
}

// SetTextAttrs sets v's textual attributes from strings, interning them in
// the builder's dictionary.
func (b *Builder) SetTextAttrs(v NodeID, attrs ...string) {
	ids := make([]int32, 0, len(attrs))
	for _, a := range attrs {
		ids = append(ids, b.dict.Intern(a))
	}
	b.SetTextTokens(v, ids)
}

// SetTextTokens sets v's textual attributes from pre-interned token IDs.
func (b *Builder) SetTextTokens(v NodeID, ids []int32) {
	sorted := append([]int32(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Deduplicate.
	out := sorted[:0]
	for i, id := range sorted {
		if i == 0 || id != sorted[i-1] {
			out = append(out, id)
		}
	}
	b.text[v] = out
}

// SetNumAttrs sets v's numerical attribute vector; len(vals) must equal the
// builder's numDim.
func (b *Builder) SetNumAttrs(v NodeID, vals ...float64) {
	if len(vals) != b.numDim {
		panic(fmt.Sprintf("graph: SetNumAttrs(%d): got %d values, want %d", v, len(vals), b.numDim))
	}
	b.num[v] = append([]float64(nil), vals...)
}

// Build freezes the builder into an immutable Graph. It validates edge
// endpoints, symmetrizes, deduplicates, and drops self-loops.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	deg := make([]int32, n)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			continue
		}
		deg[u]++
		deg[v]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]NodeID, offsets[n])
	fill := make([]int32, n)
	copy(fill, offsets[:n])
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[fill[u]] = v
		fill[u]++
		adj[fill[v]] = u
		fill[v]++
	}
	// Sort and deduplicate each adjacency list, then recompact.
	newAdj := adj[:0]
	newOff := make([]int32, n+1)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		ns := adj[lo:hi]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		start := len(newAdj)
		for i, u := range ns {
			if i > 0 && u == ns[i-1] {
				continue
			}
			newAdj = append(newAdj, u)
		}
		_ = start
		newOff[v+1] = int32(len(newAdj))
	}
	if len(newAdj)%2 != 0 {
		return nil, fmt.Errorf("graph: internal error: odd directed edge count %d", len(newAdj))
	}

	textOff := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(b.text[v])
		textOff[v+1] = int32(total)
	}
	text := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		text = append(text, b.text[v]...)
	}

	num := make([]float64, n*b.numDim)
	for v := 0; v < n; v++ {
		if b.num[v] != nil {
			copy(num[v*b.numDim:], b.num[v])
		}
	}

	g := &Graph{
		offsets: newOff,
		adj:     append([]NodeID(nil), newAdj...),
		textOff: textOff,
		text:    text,
		numDim:  b.numDim,
		num:     num,
		dict:    b.dict,
	}
	return g, nil
}

// MustBuild is Build that panics on error, for tests and generators that
// construct edges from trusted indices.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
