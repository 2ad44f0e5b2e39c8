// Package attr implements the attribute-cohesiveness metric of the paper
// (§II): Jaccard distance over textual attributes, min-max-normalized
// Manhattan distance over numerical attributes, their composite combination
// f(u,v) = γ·f_t + (1−γ)·f_#, and the q-centric attribute distance δ(H) of a
// community. f(·,q) is evaluated on the caller's goroutine, by the solver
// that reads it: lazily through a View, or whole by QueryDist.
package attr

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/ws"
)

// Normalizer rescales each numerical attribute dimension to [0,1] using the
// min and max observed over a graph (the Z(·) of §II).
type Normalizer struct {
	min, max []float64
	dims     []dimScale // per dimension, derived from min and max once
}

// dimScale is what Scale reads of one dimension: its min, its span max−min,
// and whether that span is zero, negative or infinite (flat), which maps the
// whole dimension to 0.
type dimScale struct {
	min, span float64
	flat      bool
}

// scale is Normalizer.Scale of x in this dimension.
func (d *dimScale) scale(x float64) float64 {
	if d.flat {
		return 0
	}
	s := (x - d.min) / d.span
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// newNormalizer takes ownership of min and max.
func newNormalizer(min, max []float64) *Normalizer {
	nz := &Normalizer{min: min, max: max, dims: make([]dimScale, len(min))}
	for i := range nz.dims {
		span := max[i] - min[i]
		nz.dims[i] = dimScale{min: min[i], span: span, flat: span <= 0 || math.IsInf(span, 0)}
	}
	return nz
}

// NewNormalizer computes per-dimension min/max over all nodes of g.
func NewNormalizer(g graph.Store) *Normalizer {
	d := g.NumDim()
	min, max := make([]float64, d), make([]float64, d)
	for i := 0; i < d; i++ {
		min[i] = math.Inf(1)
		max[i] = math.Inf(-1)
	}
	for v := 0; v < g.NumNodes(); v++ {
		vals := g.NumAttrs(graph.NodeID(v))
		for i, x := range vals {
			if x < min[i] {
				min[i] = x
			}
			if x > max[i] {
				max[i] = x
			}
		}
	}
	return newNormalizer(min, max)
}

// Bounds returns copies of the per-dimension min and max the normalizer was
// built with — the serializable "metric table" a snapshot persists so a
// reopened graph scales attributes identically without rescanning them.
func (nz *Normalizer) Bounds() (min, max []float64) {
	return append([]float64(nil), nz.min...), append([]float64(nil), nz.max...)
}

// NewNormalizerFromBounds rebuilds a Normalizer from persisted per-dimension
// bounds, the inverse of Bounds.
func NewNormalizerFromBounds(min, max []float64) (*Normalizer, error) {
	if len(min) != len(max) {
		return nil, fmt.Errorf("attr: bounds length mismatch: %d min, %d max", len(min), len(max))
	}
	return newNormalizer(append([]float64(nil), min...), append([]float64(nil), max...)), nil
}

// Scale maps value x in dimension i to [0,1]. Dimensions with zero range map
// to 0 so they contribute no distance.
func (nz *Normalizer) Scale(i int, x float64) float64 {
	return nz.dims[i].scale(x)
}

// Metric evaluates the composite attribute distance of §II on a fixed graph.
type Metric struct {
	g     graph.Store
	gamma float64
	norm  *Normalizer
}

// NewMetric returns a Metric with balance factor gamma ∈ [0,1].
// gamma = 1 uses only textual (Jaccard) distance, gamma = 0 only numerical
// (Manhattan) distance.
func NewMetric(g graph.Store, gamma float64) (*Metric, error) {
	if gamma < 0 || gamma > 1 {
		return nil, fmt.Errorf("attr: gamma %v outside [0,1]", gamma)
	}
	return &Metric{g: g, gamma: gamma, norm: NewNormalizer(g)}, nil
}

// NewMetricWithNormalizer is NewMetric with a precomputed Normalizer
// (typically reopened from a snapshot), skipping the full-graph min/max scan.
// The normalizer's width must match the graph's numerical dimension.
func NewMetricWithNormalizer(g graph.Store, gamma float64, nz *Normalizer) (*Metric, error) {
	if gamma < 0 || gamma > 1 {
		return nil, fmt.Errorf("attr: gamma %v outside [0,1]", gamma)
	}
	if len(nz.min) != g.NumDim() {
		return nil, fmt.Errorf("attr: normalizer width %d, graph NumDim %d", len(nz.min), g.NumDim())
	}
	return &Metric{g: g, gamma: gamma, norm: nz}, nil
}

// Graph returns the graph backing the metric is bound to.
func (m *Metric) Graph() graph.Store { return m.g }

// Normalizer returns the metric's numerical-attribute normalizer.
func (m *Metric) Normalizer() *Normalizer { return m.norm }

// Gamma returns the balance factor.
func (m *Metric) Gamma() float64 { return m.gamma }

// Jaccard returns the Jaccard distance between the textual attribute sets of
// u and v: 1 − |A∩B|/|A∪B|. Two empty sets have distance 0.
func (m *Metric) Jaccard(u, v graph.NodeID) float64 {
	a, b := m.g.TextAttrs(u), m.g.TextAttrs(v)
	return JaccardTokens(a, b)
}

// JaccardTokens computes the Jaccard distance of two sorted token slices.
func JaccardTokens(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return 1 - float64(inter)/float64(union)
}

// SharedTokens returns |A∩B| for two sorted token slices.
func SharedTokens(a, b []int32) int {
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return inter
}

// Manhattan returns the normalized Manhattan distance between the numerical
// attribute vectors of u and v, averaged over dimensions, in [0,1].
func (m *Metric) Manhattan(u, v graph.NodeID) float64 {
	d := m.g.NumDim()
	if d == 0 {
		return 0
	}
	a, b := m.g.NumAttrs(u), m.g.NumAttrs(v)
	sum := 0.0
	for i := 0; i < d; i++ {
		sum += math.Abs(m.norm.Scale(i, a[i]) - m.norm.Scale(i, b[i]))
	}
	return sum / float64(d)
}

// Distance returns the composite attribute distance
// f(u,v) = γ·Jaccard + (1−γ)·Manhattan, in [0,1].
func (m *Metric) Distance(u, v graph.NodeID) float64 {
	return m.gamma*m.Jaccard(u, v) + (1-m.gamma)*m.Manhattan(u, v)
}

// QueryDist computes f(v,q) for every node v of the graph, serially on the
// calling goroutine. Index with the node ID. The query's own entry is 0. A
// search reads f through a View instead, which evaluates only the nodes it
// touches; the whole vector is for the exact solver, whose bounds read every
// node. Each entry is the view's kernel, so q's side is read once, on a
// pooled workspace, and the vector is all the call allocates.
func (m *Metric) QueryDist(q graph.NodeID) []float64 {
	w := ws.Get()
	defer w.Release()
	f := m.query(q, &w.Dist)
	dst := make([]float64, m.g.NumNodes())
	for v := range dst {
		dst[v] = f.distance(graph.NodeID(v))
	}
	return dst
}

// View is f(·,q) as a search reads it, one node at a time. A lazy view
// (Metric.View) evaluates Distance(v, q) the first time v is read and keeps
// the value in its scratch, so a search pays for the nodes it touches, not
// for |V|. A vector view (VectorView) reads a whole f(·,q) vector: every node
// is computed already. Entry v of QueryDist(q) is that same Distance(v, q),
// so both give the same bits.
type View struct {
	m    *Metric
	vals []float64
	done *graph.NodeSet // nil: vals is a whole vector

	// q's side of f, read once per view (on the scratch): how many tokens it
	// has, the tokens as a bitmap of as many words as its largest needs, and
	// its numerical attributes scaled.
	qTokens int
	qBits   []uint64
	qNum    []float64
}

// View starts a lazy view of f(·,q) on sc, in O(1) once sc has served a
// graph of this size. The view is valid until the next View on sc.
func (m *Metric) View(q graph.NodeID, sc *ws.DistScratch) View {
	n := m.g.NumNodes()
	sc.Done.Reset(n)
	sc.Vals = ws.F64(sc.Vals, n)
	f := m.query(q, sc)
	f.vals, f.done = sc.Vals, &sc.Done
	return f
}

// query reads q's side of f onto sc: q's tokens into sc.Bits, once the
// previous q's are cleared, and q's numerical attributes scaled into sc.Q.
// The view it returns evaluates distance and nothing else.
func (m *Metric) query(q graph.NodeID, sc *ws.DistScratch) View {
	sc.Q = ws.F64(sc.Q, m.g.NumDim())
	for i, x := range m.g.NumAttrs(q) {
		sc.Q[i] = m.norm.Scale(i, x)
	}
	// Token IDs index the dictionary; the checks for < 0 keep a corrupt
	// column from indexing outside the bitmap.
	text := m.g.TextAttrs(q)
	clear(sc.Bits) // every word past len(sc.Bits) is zero already
	words := 0
	if n := len(text); n > 0 && text[n-1] >= 0 {
		words = int(text[n-1])>>6 + 1
	}
	sc.Bits = slices.Grow(sc.Bits[:0], words)[:words]
	for _, t := range text {
		if t >= 0 {
			sc.Bits[t>>6] |= 1 << (t & 63)
		}
	}
	return View{m: m, qTokens: len(text), qBits: sc.Bits, qNum: sc.Q}
}

// VectorView views dist, which holds f(v,q) for every node v.
func VectorView(dist []float64) View { return View{vals: dist} }

// At returns f(v,q).
func (f *View) At(v graph.NodeID) float64 {
	if f.done != nil && f.done.Add(v) {
		f.vals[v] = f.distance(v)
	}
	return f.vals[v]
}

// distance is Metric.Distance(v, q) with q's side read once: the same float
// operations in the same order, so the same bits.
func (f *View) distance(v graph.NodeID) float64 {
	manhattan := 0.0
	if d := len(f.qNum); d > 0 {
		num, dims := f.m.g.NumAttrs(v)[:d], f.m.norm.dims[:d]
		sum := 0.0
		for i, x := range f.qNum {
			sum += math.Abs(dims[i].scale(num[i]) - x)
		}
		manhattan = sum / float64(d)
	}
	return f.m.gamma*f.jaccard(v) + (1-f.m.gamma)*manhattan
}

// jaccard is JaccardTokens(TextAttrs(v), q's tokens): it counts v's tokens
// whose bit is set in q's bitmap (v's tokens are sorted, so the first one
// past the bitmap ends the count) and divides the same integers.
func (f *View) jaccard(v graph.NodeID) float64 {
	text, bits := f.m.g.TextAttrs(v), f.qBits
	if len(text) == 0 && f.qTokens == 0 {
		return 0
	}
	inter := 0
	for _, t := range text {
		w := uint(t) >> 6
		if w >= uint(len(bits)) {
			break
		}
		inter += int(bits[w] >> (uint(t) & 63) & 1)
	}
	union := len(text) + f.qTokens - inter
	return 1 - float64(inter)/float64(union)
}

// Delta computes the q-centric attribute distance δ(H) of Definition 4: the
// mean composite distance to q over all members except q itself. A community
// of only {q} has δ = 0.
func (f *View) Delta(members []graph.NodeID, q graph.NodeID) float64 {
	sum := 0.0
	n := 0
	for _, v := range members {
		if v == q {
			continue
		}
		sum += f.At(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Delta is View.Delta on a whole f(·,q) vector: dist[v] = f(v,q).
func Delta(dist []float64, members []graph.NodeID, q graph.NodeID) float64 {
	f := VectorView(dist)
	return f.Delta(members, q)
}

// MaxPairwise returns the maximum composite distance over all pairs of
// members, the objective VAC minimizes. O(|H|²).
func (m *Metric) MaxPairwise(members []graph.NodeID) float64 {
	max := 0.0
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if d := m.Distance(members[i], members[j]); d > max {
				max = d
			}
		}
	}
	return max
}
