// Package sampling implements the attribute-aware sampling step of the
// paper (§V-A): construction of the query neighborhood Gq, once per
// search, by best-first expansion until the Hoeffding minimum size of
// Theorem 10 is reached (every round's sample is drawn from it), sampling
// probabilities Ps(v) proportional to attribute similarity (Eq. 5), and
// weighted sampling without replacement.
//
// The operations thread a ws.Workspace for their scratch state — visited
// sets, the frontier, the sampling-key array — and append results to
// caller-owned slices, so they allocate nothing once both have warmed to the
// working size. They read f(·,q) through an attr.View, so a lazy view
// evaluates f only at the nodes Gq's frontier reaches.
//
// The sample's order, ties included, is part of every answer at λ < 1: it
// decides which nodes the first rounds hold. WeightedSampleInto sorts with
// slices.SortFunc, so that order is the one the module's Go version gives
// equal keys, and TestDrawGolden pins it. No search at the default λ = 1
// draws: its sample is all of Gq.
package sampling

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/attr"
	"repro/internal/graph"
	"repro/internal/ws"
)

// The frontier (ws.Frontier) pops in ascending (f, node ID) order, a total
// order, so an expansion's list follows from g, q and f alone. f ∈ [0,1]
// splits into ws.FrontierBuckets buckets, and a pop takes the lowest
// non-empty one from the occupancy bitmap and scans its list for the
// (f, ID)-least entry. A pop that finds more than longBucket entries in the
// bucket moves them all to the frontier's heap, which is ordered by (f, ID)
// too; the next pops compare its top with the lowest list's least. Every
// entry moves at most once, so when f is constant — a graph without
// attributes, where every entry lands in bucket 0 — a pop costs O(log F),
// not O(F). An entry keeps its slab slot in the heap, which holds slot
// numbers, so the slab is never larger than the frontier was.
const longBucket = 16

// bucketOf is f's bucket: ⌊f·ws.FrontierBuckets⌋, clamped to the table
// (f = 1 and anything above it land in the last bucket, anything below 0 in
// the first). It is monotone in f.
func bucketOf(f float64) int {
	x := f * ws.FrontierBuckets
	if !(x > 0) {
		return 0
	}
	if x >= ws.FrontierBuckets-1 {
		return ws.FrontierBuckets - 1
	}
	return int(x)
}

// before orders slab entries by (f, node ID).
func before(a, b *ws.FrontierEntry) bool {
	return a.D < b.D || a.D == b.D && a.V < b.V
}

func frontierReset(fr *ws.Frontier) {
	clear(fr.Occ[:])
	fr.Summary = 0
	fr.Slab, fr.Free = fr.Slab[:0], -1
	fr.Heap = fr.Heap[:0]
	fr.Len, fr.Scanned = 0, 0
}

func frontierPush(fr *ws.Frontier, v graph.NodeID, f float64) {
	i := fr.Free
	if i >= 0 {
		fr.Free = fr.Slab[i].Next
	} else {
		i = int32(len(fr.Slab))
		fr.Slab = append(fr.Slab, ws.FrontierEntry{})
	}
	b := bucketOf(f)
	word, bit := b>>6, uint64(1)<<(b&63)
	next := int32(-1)
	if fr.Occ[word]&bit != 0 {
		next = fr.Heads[b]
	} else {
		fr.Occ[word] |= bit
		fr.Summary |= 1 << word
	}
	fr.Slab[i] = ws.FrontierEntry{D: f, V: v, Next: next}
	fr.Heads[b] = i
	fr.Len++
}

// frontierPop removes and returns the (f, ID)-least entry; fr must not be
// empty.
func frontierPop(fr *ws.Frontier) ws.NodeDist {
	fr.Len--
	if fr.Summary == 0 {
		return release(fr, popSlot(fr))
	}
	word := bits.TrailingZeros64(fr.Summary)
	b := word<<6 | bits.TrailingZeros64(fr.Occ[word])
	slab := fr.Slab
	best, bestPrev := fr.Heads[b], int32(-1)
	n := 1
	for prev, i := best, slab[best].Next; i >= 0; prev, i = i, slab[i].Next {
		if n == longBucket {
			fr.Scanned += n
			toHeap(fr, b)
			return release(fr, popSlot(fr))
		}
		n++
		if before(&slab[i], &slab[best]) {
			best, bestPrev = i, prev
		}
	}
	fr.Scanned += n
	if len(fr.Heap) > 0 && before(&slab[fr.Heap[0]], &slab[best]) {
		return release(fr, popSlot(fr))
	}
	next := slab[best].Next
	switch {
	case bestPrev >= 0:
		slab[bestPrev].Next = next
	case next >= 0:
		fr.Heads[b] = next
	default:
		unmark(fr, b)
	}
	return release(fr, best)
}

// release frees slab entry i, unlinked from every list, and returns it.
func release(fr *ws.Frontier, i int32) ws.NodeDist {
	e := &fr.Slab[i]
	e.Next, fr.Free = fr.Free, i
	return ws.NodeDist{V: e.V, D: e.D}
}

// unmark records that bucket b's list is empty.
func unmark(fr *ws.Frontier, b int) {
	word := b >> 6
	if fr.Occ[word] &^= 1 << (b & 63); fr.Occ[word] == 0 {
		fr.Summary &^= 1 << word
	}
}

// toHeap moves bucket b's list into the heap.
func toHeap(fr *ws.Frontier, b int) {
	for i := fr.Heads[b]; i >= 0; i = fr.Slab[i].Next {
		pushSlot(fr, i)
		fr.Scanned++
	}
	unmark(fr, b)
}

// pushSlot and popSlot keep fr.Heap, slab slots in (f, ID) order, a binary
// heap.
func pushSlot(fr *ws.Frontier, i int32) {
	h, slab := append(fr.Heap, i), fr.Slab
	x := &slab[i]
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !before(x, &slab[h[p]]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = i
	fr.Heap = h
}

func popSlot(fr *ws.Frontier) int32 {
	h, slab := fr.Heap, fr.Slab
	n := len(h) - 1
	top, last := h[0], h[n]
	x := &slab[last]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(&slab[h[j2]], &slab[h[j]]) {
			j = j2
		}
		if !before(&slab[h[j]], x) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	fr.Heap = h[:n]
	return top
}

// BuildGqView expands a best-first search from q, always visiting the
// frontier node with the smallest composite distance to q first (the
// smallest node ID among equal distances), until minSize nodes are
// collected (or the component of q is exhausted), and appends them to dst.
// f is read once per node the frontier reaches. q is always the first
// element appended. Every call is a fresh expansion; its scratch state (the
// frontier, and w.Visited as its seen set) is drawn from w.
func BuildGqView(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, f *attr.View, minSize int, w *ws.Workspace) []graph.NodeID {
	if minSize < 1 {
		minSize = 1
	}
	fr, seen := &w.Frontier, &w.Visited
	seen.Reset(g.NumNodes())
	frontierReset(fr)
	frontierPush(fr, q, 0)
	seen.Add(q)
	end := len(dst) + minSize
	for fr.Len > 0 && len(dst) < end {
		v := frontierPop(fr).V
		dst = append(dst, v)
		for _, u := range g.NeighborsInto(&w.NbrA, v) {
			if seen.Add(u) {
				frontierPush(fr, u, f.At(u))
			}
		}
	}
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
// take the size largest keys, in the order slices.SortFunc by byKeyDesc
// gives on the module's Go version, equal keys included (TestDrawGolden
// pins it). Nodes with zero weight are drawn only if the positive-weight
// pool is exhausted. The query node, if present in population, is always
// included. The key array is drawn from w. A search at the default λ = 1
// never calls it.
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
	slices.SortFunc(keys, byKeyDesc)
	for i := 0; i < size; i++ {
		dst = append(dst, keys[i].V)
	}
	w.Keys = keys[:0]
	return dst
}

// byKeyDesc orders sampling keys by descending key; equal keys compare 0.
func byKeyDesc(a, b ws.NodeDist) int {
	switch {
	case a.D > b.D:
		return -1
	case a.D < b.D:
		return 1
	default:
		return 0
	}
}
