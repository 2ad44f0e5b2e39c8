// Package sampling implements the attribute-aware sampling step of the
// paper (§V-A): construction of the query neighborhood Gq by best-first
// expansion until the Hoeffding minimum size is reached, sampling
// probabilities Ps(v) proportional to attribute similarity (Eq. 5), and
// weighted sampling without replacement.
//
// The operations thread a ws.Workspace for their scratch state — visited
// sets, the frontier heap, the sampling-key array — and append results to
// caller-owned slices, so they allocate nothing once both have warmed to the
// working size. They read f(·,q) through an attr.View, so a lazy view
// evaluates f only at the nodes Gq's frontier reaches.
package sampling

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/attr"
	"repro/internal/graph"
	"repro/internal/ws"
)

// The frontier heap is a hand-rolled binary min-heap over ws.NodeDist with
// exactly container/heap's sift rules, so pop order (and therefore every
// sampling outcome for a fixed seed) is identical to the historical
// container/heap implementation — without the per-push interface boxing
// allocation.

func heapPush(h []ws.NodeDist, x ws.NodeDist) []ws.NodeDist {
	h = append(h, x)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].D < h[i].D) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPop(h []ws.NodeDist) ([]ws.NodeDist, ws.NodeDist) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	// Sift down over h[:n].
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].D < h[j1].D {
			j = j2
		}
		if !(h[j].D < h[i].D) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// BuildGqView expands a best-first search from q, always visiting the
// frontier node with the smallest composite distance to q first, until
// minSize nodes are collected (or the component of q is exhausted), and
// appends them to dst. f is read once per node the frontier reaches. q is
// always the first element appended. All scratch state (visited set,
// frontier heap) is drawn from w.
//
// An empty dst starts a fresh expansion. A non-empty dst must be what the
// last call on w returned for the same g, q and f: the expansion goes on
// from the frontier that call left in w.Heap and w.GqSeen, and the pop order
// being deterministic, the result is the list a fresh expansion builds.
func BuildGqView(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, f *attr.View, minSize int, w *ws.Workspace) []graph.NodeID {
	if minSize < 1 {
		minSize = 1
	}
	h := w.Heap
	if len(dst) == 0 {
		w.GqSeen.Reset(g.NumNodes())
		h = heapPush(h[:0], ws.NodeDist{V: q, D: 0})
		w.GqSeen.Add(q)
	}
	for len(h) > 0 && len(dst) < minSize {
		var nd ws.NodeDist
		h, nd = heapPop(h)
		dst = append(dst, nd.V)
		for _, u := range g.NeighborsInto(&w.NbrA, nd.V) {
			if w.GqSeen.Add(u) {
				h = heapPush(h, ws.NodeDist{V: u, D: f.At(u)})
			}
		}
	}
	w.Heap = h
	return dst
}

// BuildGqInto is BuildGqView over a whole f(·,q) vector, dist[v] = f(v,q),
// for callers that hold one: benchmark/trace.go's primitive timings and the
// tests.
func BuildGqInto(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, dist []float64, minSize int, w *ws.Workspace) []graph.NodeID {
	f := attr.VectorView(dist)
	return BuildGqView(dst, g, q, &f, minSize, w)
}

// ProbabilitiesInto is ProbabilitiesView over a whole f(·,q) vector.
func ProbabilitiesInto(dst []float64, population []graph.NodeID, dist []float64) []float64 {
	f := attr.VectorView(dist)
	return ProbabilitiesView(dst, population, &f)
}

// ProbabilitiesView appends to dst the normalized sampling probabilities of
// Eq. 5 over the population nodes: Ps(v) ∝ 1 − f(v,q). If all distances are
// 1 the distribution degenerates to uniform.
func ProbabilitiesView(dst []float64, population []graph.NodeID, f *attr.View) []float64 {
	start := len(dst)
	sum := 0.0
	for _, v := range population {
		w := 1 - f.At(v)
		if w < 0 {
			w = 0
		}
		dst = append(dst, w)
		sum += w
	}
	ps := dst[start:]
	if sum <= 0 {
		u := 1 / float64(len(population))
		for i := range ps {
			ps[i] = u
		}
		return dst
	}
	for i := range ps {
		ps[i] /= sum
	}
	return dst
}

// WeightedSampleInto appends to dst size distinct nodes drawn from
// population with probability proportional to weights, using the
// exponential-keys method (Efraimidis & Spirakis A-ES): key_i = U_i^(1/w_i);
// take the size largest keys. Nodes with zero weight are drawn only if the
// positive-weight pool is exhausted. The query node, if present in
// population, is always included. The key array is drawn from w.
//
// With weights near 1/|population| the exponent p = 1/w is in the thousands
// and most keys underflow to exactly 0. Those are not computed: ln U ≤ U−1,
// so U^p ≤ exp(p(U−1)), and below e^−745.2 a float64 is 0 — when p(U−1) <
// −800 the key is the 0 math.Pow returns. Same draws, same keys, same order.
func WeightedSampleInto(dst []graph.NodeID, population []graph.NodeID, weights []float64, size int, q graph.NodeID, rng *rand.Rand, w *ws.Workspace) []graph.NodeID {
	if size >= len(population) {
		return append(dst, population...)
	}
	if size < 1 {
		size = 1
	}
	keys := w.Keys[:0]
	for i, v := range population {
		wt := weights[i]
		var key float64
		switch {
		case v == q:
			key = math.Inf(1) // force inclusion
		case wt <= 0:
			key = -rng.Float64() // after every positive-weight node
		default:
			if u, p := rng.Float64(), 1/wt; !(p*(u-1) < -800) {
				key = math.Pow(u, p)
			}
		}
		keys = append(keys, ws.NodeDist{V: v, D: key})
	}
	slices.SortFunc(keys, func(a, b ws.NodeDist) int {
		switch {
		case a.D > b.D:
			return -1
		case a.D < b.D:
			return 1
		default:
			return 0
		}
	})
	for i := 0; i < size; i++ {
		dst = append(dst, keys[i].V)
	}
	w.Keys = keys[:0]
	return dst
}
