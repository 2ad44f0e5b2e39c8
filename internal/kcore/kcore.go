// Package kcore implements k-core decomposition (Batagelj–Zaversnik, O(m))
// for callers that index all of g, the extraction of q's maximal connected
// k-core by a walk out from q (MaximalSubIn), and an incremental
// connected-k-core maintenance structure with rollback used by the
// enumeration algorithms. Every extraction is MaximalSubIn's: over a node
// set or, with a nil set, over all of g, it reads only what q reaches.
package kcore

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/ws"
)

// Decompose computes the coreness of every node with the O(m) bin-sort
// algorithm of Batagelj and Zaversnik. The returned slice is freshly
// allocated and owned by the caller (the Engine retains it as its admission
// index).
func Decompose(g graph.Adjacency) []int32 {
	n := g.NumNodes()
	deg, vert, pos := make([]int32, n), make([]int32, n), make([]int32, n)
	var nbr []graph.NodeID
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(graph.NodeID(v)))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] = start index in vert of nodes with degree d.
	bin := make([]int32, maxDeg+2)
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
		for _, u := range g.NeighborsInto(&nbr, v) {
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
// the traversal scratch drawn from w: the members of MaximalSubIn over all
// of g, built with no maintainer. The walk runs on w.KCore, so a maintainer
// built there does not survive it. It returns nil (not dst) when q is in no
// k-core, preserving the nil-means-absent contract.
func MaximalConnectedKCoreInto(dst []graph.NodeID, g graph.Adjacency, q graph.NodeID, k int, w *ws.Workspace) []graph.NodeID {
	comp, _ := extract(context.Background(), g, q, k, nil, math.MaxInt, w)
	if comp == nil {
		return nil
	}
	return append(dst, comp...)
}

// MaximalSubIn returns the maintenance structure over the maximal connected
// k-core containing q of G[in] — of all of g when in is nil — or nil when q
// is in no k-core of it, the mirror of truss.MaximalSubIn. It reads only
// what q reaches: a BFS from q through the members of in whose degree in
// G[in] is at least k (R), a peel of R to its k-core, and q's component of
// that in BFS order from q with neighbours in g's order. That is exact: a
// node below k in G[in] is in no k-core of it, and a k-core is the union of
// its components' cores. The Sub is the one NewSub builds over that
// component, on w.KCore and valid until the next one built there; w.Visited
// and w.DegS are scratch.
//
// The BFS gives up once it has reached more than limit nodes (math.MaxInt:
// never), having read at most limit lists, and so does a cancelled ctx;
// either way the result is nil and closed is false. closed is true when the
// walk read all q reaches, so a nil Sub then proves q in no k-core of G[in].
func MaximalSubIn(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, limit int, w *ws.Workspace) (sub *Sub, closed bool) {
	comp, closed := extract(ctx, g, q, k, in, limit, w)
	if comp == nil {
		return nil, closed
	}
	sc := &w.KCore
	return &Sub{g: g, k: k, q: q, universe: comp, alive: sc.Alive, deg: sc.Deg, mark: sc.Mark, size: len(comp), sc: sc}, true
}

// extract is MaximalSubIn without the maintainer's header: it leaves q's
// component in w.KCore — the member order in Universe, flagged in Alive,
// each member's degree in it in Deg — and returns the order, or nil, and
// whether the walk closed within limit.
func extract(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, in *graph.NodeSet, limit int, w *ws.Workspace) ([]graph.NodeID, bool) {
	n, sc := g.NumNodes(), &w.KCore
	resize(sc, n)
	member := func(u graph.NodeID) bool { return in == nil || in.Has(u) }
	if !member(q) {
		return nil, true
	}
	// Reach: popping a member reads its list once, counts its degree in
	// G[in] into cnt and, at k or more, queues its unseen members and joins
	// R; below k it is out. Every queued node is popped, so a queue of at
	// most limit nodes is at most limit lists read.
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
			return nil, false
		}
		x := queue[i]
		nbrs := g.NeighborsInto(&w.NbrA, x)
		d := int32(0)
		for _, u := range nbrs {
			if member(u) {
				d++
			}
		}
		if int(d) < k {
			cnt[x] = out
			continue
		}
		cnt[x] = d
		for _, u := range nbrs {
			if member(u) && seen.Add(u) {
				queue = append(queue, u)
			}
		}
		if len(queue) > limit {
			sc.Comp = queue[:0]
			return nil, false
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
		return nil, true
	}

	// Order: q's component; a node's degree in the core is its degree in
	// the component, which is what NewSub counts.
	comp := append(sc.Universe[:0], q)
	sc.Alive[q] = true
	for i := 0; i < len(comp); i++ {
		x := comp[i]
		sc.Deg[x] = cnt[x]
		for _, u := range g.NeighborsInto(&w.NbrA, x) {
			if alive(u) && !sc.Alive[u] {
				sc.Alive[u] = true
				comp = append(comp, u)
			}
		}
	}
	sc.Universe = comp
	return comp, true
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
