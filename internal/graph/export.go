package graph

import "fmt"

// Raw is the flat, serializable form of a Graph: the CSR arrays, the
// attribute columns and the dictionary names, exactly as a Graph stores them
// internally. It is the exchange shape between a Graph and the binary
// snapshot store (internal/store): Export flattens a Graph into a Raw and
// FromRaw validates one back into a ready-to-serve Graph with no re-sorting
// or re-indexing.
type Raw struct {
	// Offsets is the CSR offset array, len NumNodes+1, Offsets[0] == 0.
	Offsets []int32
	// Adj holds the concatenated sorted neighbor lists, len 2·NumEdges.
	Adj []NodeID
	// TextOff/Text hold the per-node sorted textual token IDs in the same
	// offset/payload layout; len(TextOff) == NumNodes+1.
	TextOff []int32
	Text    []int32
	// NumDim is the width of the numerical attribute vector; Num is row-major
	// with len NumNodes·NumDim.
	NumDim int
	Num    []float64
	// DictNames maps token ID → attribute string.
	DictNames []string
}

// Export flattens g into its Raw form. The returned slices alias g's internal
// storage (DictNames excepted, which is copied) and must not be modified.
func (g *Graph) Export() Raw {
	return Raw{
		Offsets:   g.offsets,
		Adj:       g.adj,
		TextOff:   g.textOff,
		Text:      g.text,
		NumDim:    g.numDim,
		Num:       g.num,
		DictNames: g.dict.Names(),
	}
}

// FromRaw validates r and adopts it as a Graph. Unlike Builder.Build it does
// not sort, deduplicate or symmetrize: r must already be in the canonical
// form Export produces, and FromRaw verifies that it is — offsets monotone,
// adjacency lists sorted, loop-free and symmetric, tokens sorted and within
// the dictionary, attribute rows the declared width. The slices are adopted,
// not copied; the caller must not modify them afterwards.
func FromRaw(r Raw) (*Graph, error) {
	if len(r.Offsets) < 1 {
		return nil, fmt.Errorf("graph: raw: empty offsets")
	}
	n := len(r.Offsets) - 1
	if err := checkOffsets("offsets", r.Offsets, len(r.Adj)); err != nil {
		return nil, err
	}
	if len(r.Adj)%2 != 0 {
		return nil, fmt.Errorf("graph: raw: odd directed edge count %d", len(r.Adj))
	}
	if len(r.TextOff) != n+1 {
		return nil, fmt.Errorf("graph: raw: len(TextOff) = %d, want %d", len(r.TextOff), n+1)
	}
	if err := checkOffsets("text offsets", r.TextOff, len(r.Text)); err != nil {
		return nil, err
	}
	if r.NumDim < 0 {
		return nil, fmt.Errorf("graph: raw: negative NumDim %d", r.NumDim)
	}
	if len(r.Num) != n*r.NumDim {
		return nil, fmt.Errorf("graph: raw: len(Num) = %d, want %d·%d", len(r.Num), n, r.NumDim)
	}
	dict, err := NewDictFromNames(r.DictNames)
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		ns := r.Adj[r.Offsets[v]:r.Offsets[v+1]]
		for i, u := range ns {
			switch {
			case int(u) < 0 || int(u) >= n:
				return nil, fmt.Errorf("graph: raw: node %d: neighbor %d out of range [0,%d)", v, u, n)
			case u == NodeID(v):
				return nil, fmt.Errorf("graph: raw: node %d: self-loop", v)
			case i > 0 && u <= ns[i-1]:
				return nil, fmt.Errorf("graph: raw: node %d: neighbors not sorted/unique at %d", v, u)
			}
		}
		toks := r.Text[r.TextOff[v]:r.TextOff[v+1]]
		for i, id := range toks {
			switch {
			case int(id) < 0 || int(id) >= len(r.DictNames):
				return nil, fmt.Errorf("graph: raw: node %d: token %d outside dictionary [0,%d)", v, id, len(r.DictNames))
			case i > 0 && id <= toks[i-1]:
				return nil, fmt.Errorf("graph: raw: node %d: tokens not sorted/unique at %d", v, id)
			}
		}
	}
	g := &Graph{
		offsets: r.Offsets,
		adj:     r.Adj,
		textOff: r.TextOff,
		text:    r.Text,
		numDim:  r.NumDim,
		num:     r.Num,
		dict:    dict,
	}
	// Symmetry: every directed arc must have its reverse, checked in O(n+m).
	// Arcs (v,u) are visited in lexicographic order, so for each node u the
	// reverse arcs u→v arrive in increasing v — exactly u's sorted adjacency
	// order. A cursor per node consumes them; any mismatch is an arc whose
	// reverse is missing or out of place.
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(NodeID(v)) {
			c := cursor[u]
			if int(r.Offsets[u])+int(c) >= int(r.Offsets[u+1]) || r.Adj[int(r.Offsets[u])+int(c)] != NodeID(v) {
				return nil, fmt.Errorf("graph: raw: edge (%d,%d) has no reverse arc", v, u)
			}
			cursor[u] = c + 1
		}
	}
	return g, nil
}

// FromRawTrusted adopts r as a Graph without the O(n+m) structural
// validation FromRaw performs — only the shape invariants that keep
// accessors memory-safe are checked (offset array lengths and bounds
// against the payloads). It exists for backings whose bytes were already
// validated when they were written, most importantly the mmap'd snapshot
// path, where re-walking every adjacency list on open would turn an O(1)
// boot into an O(n+m) one. The slices are adopted, not copied; callers
// wanting corruption detection must use FromRaw.
func FromRawTrusted(r Raw) (*Graph, error) {
	if len(r.Offsets) < 1 {
		return nil, fmt.Errorf("graph: raw: empty offsets")
	}
	n := len(r.Offsets) - 1
	if r.Offsets[0] != 0 || int(r.Offsets[n]) != len(r.Adj) {
		return nil, fmt.Errorf("graph: raw: offsets span [%d,%d], payload %d", r.Offsets[0], r.Offsets[n], len(r.Adj))
	}
	if len(r.TextOff) != n+1 {
		return nil, fmt.Errorf("graph: raw: len(TextOff) = %d, want %d", len(r.TextOff), n+1)
	}
	if r.TextOff[0] != 0 || int(r.TextOff[n]) != len(r.Text) {
		return nil, fmt.Errorf("graph: raw: text offsets span [%d,%d], payload %d", r.TextOff[0], r.TextOff[n], len(r.Text))
	}
	if r.NumDim < 0 || len(r.Num) != n*r.NumDim {
		return nil, fmt.Errorf("graph: raw: len(Num) = %d, want %d·%d", len(r.Num), n, r.NumDim)
	}
	dict, err := NewDictFromNames(r.DictNames)
	if err != nil {
		return nil, err
	}
	return &Graph{
		offsets: r.Offsets,
		adj:     r.Adj,
		textOff: r.TextOff,
		text:    r.Text,
		numDim:  r.NumDim,
		num:     r.Num,
		dict:    dict,
	}, nil
}

// checkOffsets verifies an offset array: starts at 0, nondecreasing, and
// ends exactly at the payload length.
func checkOffsets(what string, off []int32, payload int) error {
	if off[0] != 0 {
		return fmt.Errorf("graph: raw: %s[0] = %d, want 0", what, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: raw: %s decreasing at %d", what, i)
		}
	}
	if int(off[len(off)-1]) != payload {
		return fmt.Errorf("graph: raw: %s end %d, want payload length %d", what, off[len(off)-1], payload)
	}
	return nil
}
