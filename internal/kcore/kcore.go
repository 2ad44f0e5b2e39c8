// Package kcore implements k-core decomposition (Batagelj–Zaversnik, O(m)),
// maximal connected k-core extraction, and an incremental connected-k-core
// maintenance structure with rollback used by the enumeration algorithms.
package kcore

import (
	"context"

	"repro/internal/graph"
	"repro/internal/ws"
)

// Decompose computes the coreness of every node with the O(m) bin-sort
// algorithm of Batagelj and Zaversnik. The returned slice is freshly
// allocated and owned by the caller (the Engine retains it as its admission
// index).
func Decompose(g graph.Adjacency) []int32 {
	n := g.NumNodes()
	var nbr []graph.NodeID
	return decompose(g, make([]int32, n), make([]int32, n), make([]int32, n), nil, &nbr)
}

// decompose is the shared bin-sort peeling. deg doubles as the output
// coreness array; binBuf, when non-nil, recycles the degree-bucket array
// (its needed length depends on the max degree, so it is resized here).
func decompose(g graph.Adjacency, deg, vert, pos []int32, binBuf *[]int32, nbr *[]graph.NodeID) []int32 {
	n := g.NumNodes()
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(graph.NodeID(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] = start index in vert of nodes with degree d.
	var bin []int32
	if binBuf != nil {
		*binBuf = ws.I32(*binBuf, int(maxDeg)+2)
		bin = *binBuf
		for i := range bin {
			bin[i] = 0
		}
	} else {
		bin = make([]int32, maxDeg+2)
	}
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := int32(0)
	for d := int32(0); d <= maxDeg; d++ {
		cnt := bin[d]
		bin[d] = start
		start += cnt
	}
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := deg // reuse; peeled in order
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range g.NeighborsInto(nbr, v) {
			if core[u] > core[v] {
				du, pu := core[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}

// MaxCoreness returns the maximum and average coreness of g.
func MaxCoreness(g graph.Adjacency) (max int32, avg float64) {
	core := Decompose(g)
	sum := 0.0
	for _, c := range core {
		if c > max {
			max = c
		}
		sum += float64(c)
	}
	if len(core) > 0 {
		avg = sum / float64(len(core))
	}
	return max, avg
}

// MaximalConnectedKCore returns the node set of the maximal connected k-core
// containing q, or nil if q is not in any k-core. The result is the connected
// component of q inside the k-core of g.
func MaximalConnectedKCore(g graph.Adjacency, q graph.NodeID, k int) []graph.NodeID {
	w := ws.Get()
	defer w.Release()
	return MaximalConnectedKCoreInto(nil, g, q, k, w)
}

// MaximalConnectedKCoreInto is MaximalConnectedKCore appending to dst, with
// the decomposition and traversal scratch drawn from w. It returns nil (not
// dst) when q is in no k-core, preserving the nil-means-absent contract.
func MaximalConnectedKCoreInto(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, k int, w *ws.Workspace) []graph.NodeID {
	n := g.NumNodes()
	w.DegS = ws.I32(w.DegS, n)
	w.VertS = ws.I32(w.VertS, n)
	w.PosS = ws.I32(w.PosS, n)
	core := decompose(g, w.DegS, w.VertS, w.PosS, &w.BinS, &w.NbrA)
	if int(core[q]) < k {
		return nil
	}
	// BFS over nodes of coreness ≥ k, visited tracked by epoch stamp.
	w.Visited.Reset(n)
	w.Visited.Add(q)
	start := len(dst)
	dst = append(dst, q)
	for i := start; i < len(dst); i++ {
		for _, u := range g.NeighborsInto(&w.NbrA, dst[i]) {
			if int(core[u]) >= k && w.Visited.Add(u) {
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// MaximalSub returns the maintenance structure over the maximal connected
// k-core of g containing q, or nil if q is in no k-core: the mirror of
// truss.MaximalSub. Its Universe is MaximalConnectedKCoreInto's member order
// (BFS from q). Only the extraction's scratch is w's — w.Nodes included; the
// returned Sub owns its arrays and outlives w.
func MaximalSub(g graph.Adjacency, q graph.NodeID, k int, w *ws.Workspace) *Sub {
	members := MaximalConnectedKCoreInto(w.Nodes[:0], g, q, k, w)
	if members == nil {
		return nil
	}
	w.Nodes = members[:0]
	s, err := NewSub(g, q, k, members)
	if err != nil {
		// NewSub rejects only a member set that is not a k-core around q.
		return nil
	}
	return s
}

// MaximalSubIn is MaximalSub over G[in] on w's scratch, the mirror of
// truss.MaximalSubIn. It reads only what q reaches: a BFS from q through the
// members of in whose degree in G[in] is at least k (R), a peel of R to its
// k-core, and q's component of that in BFS order from q with neighbours in
// g's order — MaximalConnectedKCoreInto's order on G[in]. That is exact: a
// node below k in G[in] is in no k-core of it, and a k-core is the union of
// its components' cores. The Sub is the one NewSub builds over that
// component, on w.KCore and valid until the next one built there; w.Visited
// and w.DegS are scratch. A cancelled ctx ends the reach with a nil result.
func MaximalSubIn(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, w *ws.Workspace) *Sub {
	n, sc := g.NumNodes(), &w.KCore
	resize(sc, n)
	if !in.Has(q) {
		return nil
	}
	// Reach: popping a member reads its list once, counts its degree in
	// G[in] into cnt and, at k or more, queues its unseen members and joins
	// R; below k it is out.
	const out = -1
	seen, cnt := &w.Visited, ws.I32(w.DegS, n)
	w.DegS = cnt
	seen.Reset(n)
	seen.Add(q)
	queue := append(sc.Comp[:0], q)
	r := 0 // R is queue[:r], compacted as the BFS passes
	for i := 0; i < len(queue); i++ {
		if i&255 == 255 && ctx.Err() != nil {
			sc.Comp = queue[:0]
			return nil
		}
		x := queue[i]
		nbrs := g.NeighborsInto(&w.NbrA, x)
		d := int32(0)
		for _, u := range nbrs {
			if in.Has(u) {
				d++
			}
		}
		if int(d) < k {
			cnt[x] = out
			continue
		}
		cnt[x] = d
		for _, u := range nbrs {
			if in.Has(u) && seen.Add(u) {
				queue = append(queue, u)
			}
		}
		queue[r] = x
		r++
	}
	reached := queue[:r]
	sc.Comp = queue[:0]

	// Peel: each node of R counts its neighbours in R, and one below k is
	// stacked, as is one whose count drops to k−1; a popped node is out.
	alive := func(u graph.NodeID) bool { return seen.Has(u) && cnt[u] != out }
	stack := sc.Stack[:0]
	for _, x := range reached {
		d := int32(0)
		for _, u := range g.NeighborsInto(&w.NbrA, x) {
			if alive(u) {
				d++
			}
		}
		if cnt[x] = d; int(d) < k {
			stack = append(stack, x)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cnt[x] = out
		for _, u := range g.NeighborsInto(&w.NbrA, x) {
			if alive(u) {
				if cnt[u]--; int(cnt[u]) == k-1 {
					stack = append(stack, u)
				}
			}
		}
	}
	sc.Stack = stack
	if cnt[q] == out {
		return nil
	}

	// Order: q's component; a node's degree in the core is its degree in
	// the component, which is what NewSub counts.
	s := &Sub{g: g, k: k, q: q, alive: sc.Alive, deg: sc.Deg, mark: sc.Mark, sc: sc}
	comp := append(sc.Universe[:0], q)
	s.alive[q] = true
	for i := 0; i < len(comp); i++ {
		x := comp[i]
		s.deg[x] = cnt[x]
		for _, u := range g.NeighborsInto(&w.NbrA, x) {
			if alive(u) && !s.alive[u] {
				s.alive[u] = true
				comp = append(comp, u)
			}
		}
	}
	sc.Universe, s.universe, s.size = comp, comp, len(comp)
	return s
}

// InKCoreSet reports whether every node of members has at least k neighbors
// inside members. Used by tests and validators. Membership is tracked by an
// epoch-stamped set from the workspace pool, not a per-call map.
func InKCoreSet(g graph.Adjacency, members []graph.NodeID, k int) bool {
	w := ws.Get()
	defer w.Release()
	in := &w.Member
	in.Reset(g.NumNodes())
	for _, v := range members {
		in.Add(v)
	}
	for _, v := range members {
		d := 0
		for _, u := range g.NeighborsInto(&w.NbrA, v) {
			if in.Has(u) {
				d++
			}
		}
		if d < k {
			return false
		}
	}
	return true
}
