package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Overlay is a mutable delta view over an immutable base Store: edges and
// nodes can be added, edges removed, and per-node attributes replaced without
// touching the base storage. The base may be any Store backing — a heap
// Graph or an mmap'd snapshot — which is what lets the serving layer replay
// journaled mutations over a read-only mapped base.
// Reads (Degree, NeighborsInto, HasEdge, attributes) see the base patched by
// the accumulated deltas, so index-maintenance code can traverse the
// post-mutation graph before any CSR exists for it. Materialize folds the
// deltas into a fresh immutable Graph that copies only what they wrote:
// touched rows are merged, each run of untouched rows between them is one
// block copy (no re-sorting, no re-deduplication, no decomposition), and a
// column no delta wrote is the base's own array, shared. A Graph may thus
// share arrays with a mapped base, so the mapping must outlive every Graph
// materialized over it (the catalog unmaps retired mappings only at Close).
//
// An Overlay is not safe for concurrent use; the serving layer applies
// mutations under its own lock and publishes only materialized Graphs.
type Overlay struct {
	base Store

	// added/removed neighbor lists per touched node, kept sorted. A neighbor
	// appears in at most one of the two (adding an edge cancels a pending
	// removal and vice versa).
	added   map[NodeID][]NodeID
	removed map[NodeID][]NodeID

	// newNodes holds the attribute rows of nodes appended past the base
	// graph; node i of the slice has ID base.NumNodes()+i.
	newText [][]int32
	newNum  [][]float64

	// attribute overrides for base nodes (SetAttr); nil entry means "keep".
	textOver map[NodeID][]int32
	numOver  map[NodeID][]float64

	// dict starts as the base dictionary and is cloned copy-on-write the
	// first time a mutation interns an unseen token, so the base graph's
	// dictionary is never written while concurrent readers hold it.
	dict      *Dict
	dictOwned bool

	edgeDelta int // added minus removed undirected edges

	nbuf []NodeID // neighbor-decode scratch for non-aliasing bases
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base Store) *Overlay {
	return &Overlay{
		base:     base,
		added:    make(map[NodeID][]NodeID),
		removed:  make(map[NodeID][]NodeID),
		textOver: make(map[NodeID][]int32),
		numOver:  make(map[NodeID][]float64),
		dict:     base.Dict(),
	}
}

// Base returns the overlay's base store.
func (o *Overlay) Base() Store { return o.base }

// NumNodes returns the node count including appended nodes.
func (o *Overlay) NumNodes() int { return o.base.NumNodes() + len(o.newText) }

// NumEdges returns the undirected edge count after the deltas.
func (o *Overlay) NumEdges() int { return o.base.NumEdges() + o.edgeDelta }

// NumDim returns the width of the numerical attribute vector.
func (o *Overlay) NumDim() int { return o.base.NumDim() }

// Dict returns the dictionary resolving token IDs, including tokens interned
// by mutations (which may differ from the base graph's dictionary).
func (o *Overlay) Dict() *Dict { return o.dict }

// Touched reports whether v's adjacency differs from the base graph.
func (o *Overlay) Touched(v NodeID) bool {
	if int(v) >= o.base.NumNodes() {
		return true
	}
	return len(o.added[v]) > 0 || len(o.removed[v]) > 0
}

// Degree returns v's degree under the deltas.
func (o *Overlay) Degree(v NodeID) int {
	if int(v) >= o.base.NumNodes() {
		return len(o.added[v])
	}
	return o.base.Degree(v) + len(o.added[v]) - len(o.removed[v])
}

// HasEdge reports whether edge (u,v) exists under the deltas.
func (o *Overlay) HasEdge(u, v NodeID) bool {
	if containsSorted(o.added[u], v) {
		return true
	}
	if containsSorted(o.removed[u], v) {
		return false
	}
	// An appended endpoint has no base edges; the base must not see its
	// out-of-range ID.
	baseN := o.base.NumNodes()
	return int(u) < baseN && int(v) < baseN && o.base.HasEdge(u, v)
}

// AppendNeighbors appends v's neighbor list under the deltas to dst and
// returns it, sorted ascending. It allocates only when dst lacks capacity,
// so traversal loops can reuse one buffer.
func (o *Overlay) AppendNeighbors(dst []NodeID, v NodeID) []NodeID {
	add := o.added[v]
	if int(v) >= o.base.NumNodes() {
		return append(dst, add...)
	}
	base := o.base.NeighborsInto(&o.nbuf, v)
	rem := o.removed[v]
	if len(add) == 0 && len(rem) == 0 {
		return append(dst, base...)
	}
	// Merge base minus removed with added; all three lists are sorted.
	i, j := 0, 0
	for _, u := range base {
		if i < len(rem) && rem[i] == u {
			i++
			continue
		}
		for j < len(add) && add[j] < u {
			dst = append(dst, add[j])
			j++
		}
		dst = append(dst, u)
	}
	return append(dst, add[j:]...)
}

// TextAttrs returns v's textual token IDs under the deltas. The returned
// slice must not be modified.
func (o *Overlay) TextAttrs(v NodeID) []int32 {
	if over, ok := o.textOver[v]; ok {
		return over
	}
	if i := int(v) - o.base.NumNodes(); i >= 0 {
		return o.newText[i]
	}
	return o.base.TextAttrs(v)
}

// NumAttrs returns v's numerical attribute vector under the deltas. The
// returned slice must not be modified.
func (o *Overlay) NumAttrs(v NodeID) []float64 {
	if over, ok := o.numOver[v]; ok {
		return over
	}
	if i := int(v) - o.base.NumNodes(); i >= 0 {
		return o.newNum[i]
	}
	return o.base.NumAttrs(v)
}

// AddEdge records the undirected edge (u,v). It is an error if the edge
// already exists, the endpoints coincide, or either is out of range.
func (o *Overlay) AddEdge(u, v NodeID) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay: edge (%d,%d) already exists", u, v)
	}
	o.patchEdge(u, v, true)
	o.patchEdge(v, u, true)
	o.edgeDelta++
	return nil
}

// RemoveEdge removes the undirected edge (u,v). It is an error if the edge
// does not exist.
func (o *Overlay) RemoveEdge(u, v NodeID) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if !o.HasEdge(u, v) {
		return fmt.Errorf("graph: overlay: edge (%d,%d) does not exist", u, v)
	}
	o.patchEdge(u, v, false)
	o.patchEdge(v, u, false)
	o.edgeDelta--
	return nil
}

// AddNode appends a node with the given attributes and returns its ID.
// numAttrs must have the graph's NumDim width (nil means all-zero).
func (o *Overlay) AddNode(textAttrs []string, numAttrs []float64) (NodeID, error) {
	if numAttrs != nil && len(numAttrs) != o.NumDim() {
		return 0, fmt.Errorf("graph: overlay: %d numerical attributes, graph has %d dimensions",
			len(numAttrs), o.NumDim())
	}
	id := NodeID(o.NumNodes())
	o.newText = append(o.newText, o.internTokens(textAttrs))
	row := make([]float64, o.NumDim())
	copy(row, numAttrs)
	o.newNum = append(o.newNum, row)
	return id, nil
}

// SetAttrs replaces v's attributes: a non-nil textAttrs replaces the textual
// set, a non-nil numAttrs (NumDim wide) replaces the numerical vector, and a
// nil keeps the current value.
func (o *Overlay) SetAttrs(v NodeID, textAttrs []string, numAttrs []float64) error {
	if int(v) < 0 || int(v) >= o.NumNodes() {
		return fmt.Errorf("graph: overlay: node %d out of range [0,%d)", v, o.NumNodes())
	}
	if numAttrs != nil && len(numAttrs) != o.NumDim() {
		return fmt.Errorf("graph: overlay: %d numerical attributes, graph has %d dimensions",
			len(numAttrs), o.NumDim())
	}
	if i := int(v) - o.base.NumNodes(); i >= 0 {
		if textAttrs != nil {
			o.newText[i] = o.internTokens(textAttrs)
		}
		if numAttrs != nil {
			copy(o.newNum[i], numAttrs)
		}
		return nil
	}
	if textAttrs != nil {
		o.textOver[v] = o.internTokens(textAttrs)
	}
	if numAttrs != nil {
		o.numOver[v] = append([]float64(nil), numAttrs...)
	}
	return nil
}

// internTokens interns attribute strings into the overlay's dictionary,
// cloning it copy-on-write before the first unseen token, and returns the
// sorted, deduplicated token IDs.
func (o *Overlay) internTokens(attrs []string) []int32 {
	ids := make([]int32, 0, len(attrs))
	for _, a := range attrs {
		id, ok := o.dict.Lookup(a)
		if !ok {
			if !o.dictOwned {
				d, err := NewDictFromNames(o.dict.Names())
				if err != nil {
					// The base dictionary is duplicate-free by construction.
					panic(err)
				}
				o.dict, o.dictOwned = d, true
			}
			id = o.dict.Intern(a)
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

func (o *Overlay) checkEndpoints(u, v NodeID) error {
	n := o.NumNodes()
	if int(u) < 0 || int(u) >= n || int(v) < 0 || int(v) >= n {
		return fmt.Errorf("graph: overlay: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: overlay: self-loop (%d,%d)", u, v)
	}
	return nil
}

// patchEdge records the directed half-edge u→v (add) or its removal. An add
// first cancels a pending removal of the same half-edge, and a removal first
// cancels a pending add, so the two lists stay disjoint.
func (o *Overlay) patchEdge(u, v NodeID, add bool) {
	from, to := o.removed, o.added
	if !add {
		from, to = o.added, o.removed
	}
	if l, ok := deleteSorted(from[u], v); ok {
		if len(l) == 0 {
			delete(from, u)
		} else {
			from[u] = l
		}
		return
	}
	// Removing an edge of an appended node never reaches here through the
	// cancel path only if it was added first, which HasEdge guarantees.
	to[u] = insertSorted(to[u], v)
}

// Materialize folds the deltas into a fresh immutable Graph. Each column —
// adjacency, text, numbers — is built in one pass over its sorted touched
// rows: a touched or appended row is merged as AppendNeighbors/TextAttrs/
// NumAttrs read it, and every run of untouched rows between two touched ones
// is copied as one block when the base is a *Graph (row by row through the
// Store accessors otherwise). A column the deltas did not write at all is
// shared with a *Graph base, not copied. The overlay remains usable (its
// deltas are not consumed), so a caller can materialize intermediate states.
func (o *Overlay) Materialize() *Graph {
	n, baseN, dim := o.NumNodes(), o.base.NumNodes(), o.NumDim()
	flat, _ := o.base.(*Graph)
	g := &Graph{numDim: dim, dict: o.dict}

	var baseOff, baseAdj, baseTextOff, baseText []int32
	var baseNum []float64
	if flat != nil {
		baseOff, baseAdj = flat.offsets, flat.adj
		baseTextOff, baseText, baseNum = flat.textOff, flat.text, flat.num
	}

	g.offsets, g.adj = foldRows(n, baseN, 2*o.NumEdges(), touchedRows(baseN, o.added, o.removed),
		baseOff, baseAdj,
		func(dst []int32, v NodeID) []int32 { return append(dst, o.base.NeighborsInto(&o.nbuf, v)...) },
		o.AppendNeighbors)

	textRows := touchedRows(baseN, o.textOver)
	textLen := len(baseText)
	for _, v := range textRows {
		textLen += len(o.textOver[v])
	}
	for _, row := range o.newText {
		textLen += len(row)
	}
	g.textOff, g.text = foldRows(n, baseN, textLen, textRows, baseTextOff, baseText,
		func(dst []int32, v NodeID) []int32 { return append(dst, o.base.TextAttrs(v)...) },
		func(dst []int32, v NodeID) []int32 { return append(dst, o.TextAttrs(v)...) })

	numRows := touchedRows(baseN, o.numOver)
	if len(numRows) == 0 && n == baseN && flat != nil {
		g.num = baseNum
		return g
	}
	num := make([]float64, 0, n*dim)
	next := 0
	copyRun := func(hi int) { // untouched base rows [next, hi)
		if flat != nil {
			num = append(num, baseNum[next*dim:hi*dim]...)
			return
		}
		for v := next; v < hi; v++ {
			num = append(num, o.base.NumAttrs(NodeID(v))...)
		}
	}
	for _, t := range numRows {
		copyRun(int(t))
		num = append(num, o.numOver[t]...)
		next = int(t) + 1
	}
	copyRun(baseN)
	for _, row := range o.newNum {
		num = append(num, row...)
	}
	g.num = num
	return g
}

// foldRows builds one offset/payload column of an n-row graph. Rows listed
// in touched (sorted base rows) and appended rows ≥ baseN come from
// appendRow. Every run of untouched base rows between them is copied from
// the base: as one block from off/data when the base is flat (its offsets
// shifted by the running difference), else row by row through appendBase.
// A column with nothing touched and nothing appended is the base's own
// arrays, returned shared. total is the payload capacity to reserve.
func foldRows(n, baseN, total int, touched []NodeID, off, data []int32,
	appendBase, appendRow func(dst []int32, v NodeID) []int32) ([]int32, []int32) {
	if len(touched) == 0 && n == baseN && off != nil {
		return off, data
	}
	offsets := make([]int32, 1, n+1)
	out := make([]int32, 0, total)
	next := 0
	copyRun := func(hi int) { // untouched base rows [next, hi)
		if off == nil {
			for v := next; v < hi; v++ {
				out = appendBase(out, NodeID(v))
				offsets = append(offsets, int32(len(out)))
			}
			return
		}
		shift := int32(len(out)) - off[next]
		out = append(out, data[off[next]:off[hi]]...)
		run := len(offsets)
		offsets = append(offsets, off[next+1:hi+1]...)
		if shift != 0 {
			for i := run; i < len(offsets); i++ {
				offsets[i] += shift
			}
		}
	}
	for _, t := range touched {
		copyRun(int(t))
		out = appendRow(out, t)
		offsets = append(offsets, int32(len(out)))
		next = int(t) + 1
	}
	copyRun(baseN)
	for v := baseN; v < n; v++ {
		out = appendRow(out, NodeID(v))
		offsets = append(offsets, int32(len(out)))
	}
	return offsets, out
}

// touchedRows returns the base rows (< baseN) keyed in any of ms, sorted
// ascending without duplicates.
func touchedRows[V any](baseN int, ms ...map[NodeID]V) []NodeID {
	var rows []NodeID
	for _, m := range ms {
		for v := range m {
			if int(v) < baseN {
				rows = append(rows, v)
			}
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// containsSorted reports whether v is in the sorted slice l.
func containsSorted(l []NodeID, v NodeID) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	return i < len(l) && l[i] == v
}

// insertSorted inserts v into the sorted slice l, keeping it sorted.
func insertSorted(l []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	l = append(l, 0)
	copy(l[i+1:], l[i:])
	l[i] = v
	return l
}

// deleteSorted removes v from the sorted slice l, reporting whether it was
// present.
func deleteSorted(l []NodeID, v NodeID) ([]NodeID, bool) {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= v })
	if i >= len(l) || l[i] != v {
		return l, false
	}
	return append(l[:i], l[i+1:]...), true
}
