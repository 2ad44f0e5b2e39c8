// Package exact implements the paper's exact baseline (§IV): enumeration of
// all connected k-cores containing the query node over the maximal connected
// k-core, with three pruning strategies that can be toggled independently
// for the Table-IV ablation:
//
//	P1 — duplicate states, via priority enumeration and Theorem 4;
//	P2 — unnecessary states, via Theorem 5;
//	P3 — unpromising states, via the lower bound of Theorem 6.
//
// f(·,q) is fixed for the whole search, so the root's members are sorted once
// by descending f(·,q), ties in universe order. P1 enumerates a state's
// candidates in that order, and under P2 stops at the first whose f is at
// most the state's δ; P3 reads the k smallest alive values off its tail.
// Without P1 the candidates are taken in universe order.
package exact

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/ws"
)

// Config selects pruning strategies and bounds the search.
type Config struct {
	PruneDuplicates  bool // P1: priority enumeration + Theorem 4
	PruneUnnecessary bool // P2: Theorem 5
	PruneUnpromising bool // P3: Theorem 6
	// MaxStates aborts the search after visiting this many states (0 means
	// unlimited). The best community found so far is returned together with
	// ErrBudgetExhausted.
	MaxStates int64
}

// DefaultConfig enables all three prunings.
func DefaultConfig() Config {
	return Config{PruneDuplicates: true, PruneUnnecessary: true, PruneUnpromising: true}
}

// Stats reports search effort.
type Stats struct {
	States           int64 // states visited (nodes of the search tree)
	PrunedDuplicate  int64 // substates cut by Theorem 4
	PrunedUnpromise  int64 // states cut by Theorem 6
	CandidatesScored int64 // states whose δ was evaluated
}

// Result is the outcome of an exact search.
type Result struct {
	Community []graph.NodeID // node set of the best connected k-core
	Delta     float64        // its q-centric attribute distance
	Stats     Stats
}

// ErrBudgetExhausted is returned (wrapped) when MaxStates is hit; the Result
// still carries the best community found. It is the shared sentinel of
// internal/cserr, so errors.Is matches it across every search method.
var ErrBudgetExhausted = cserr.ErrBudgetExhausted

// ErrNoCommunity is returned when q belongs to no connected k-core.
var ErrNoCommunity = cserr.ErrNoCommunity

type searcher struct {
	ctx   context.Context
	sub   *kcore.Sub
	dist  []float64
	q     graph.NodeID
	k     int
	cfg   Config
	stats Stats

	sumDist float64 // Σ f(v,q) over alive nodes (f(q,q)=0 contributes nothing)
	// order is the root's members other than q by descending f(·,q), ties
	// in universe order, sorted once: P1's enumeration order and, read from
	// the tail, P3's k smallest.
	order       []graph.NodeID
	bestSet     []graph.NodeID
	best        float64
	exceeded    bool
	interrupted bool
}

// ctxCheckMask sets how often the state-expansion loop polls the context: on
// every state whose ordinal has these low bits clear. 64 states sit well
// under a millisecond even on dense graphs, so cancellation is prompt while
// the poll itself stays out of the profile.
const ctxCheckMask = 63

// SearchContext solves CS-AG exactly: it finds the connected k-core
// containing q with the smallest q-centric attribute distance δ. dist[v]
// must hold f(v,q) for every node (see attr.Metric.QueryDist). The
// state-expansion loop polls ctx every few states; when it is cancelled the
// search stops promptly and returns the best community found so far together
// with an error wrapping ctx's error — symmetric with the ErrBudgetExhausted
// contract, so a deadline behaves like a budget that ran out mid-search.
// The maintainer the search peels lives in a pooled workspace held for the
// whole search.
func SearchContext(ctx context.Context, g graph.Adjacency, q graph.NodeID, k int, dist []float64, cfg Config) (Result, error) {
	if k < 1 {
		return Result{}, cserr.Invalidf("exact: k must be ≥ 1, got %d", k)
	}
	w := ws.Get()
	defer w.Release() // the maintainer lives in w
	// Not ctx: a cancelled extraction returns nil, which would read as
	// ErrNoCommunity. The enumeration below reports the cancellation.
	sub, _ := kcore.MaximalSubIn(context.Background(), g, q, k, nil, math.MaxInt, w)
	if sub == nil {
		return Result{}, ErrNoCommunity
	}
	order := slices.DeleteFunc(append(w.Nodes[:0], sub.Universe()...), func(v graph.NodeID) bool { return v == q })
	slices.SortStableFunc(order, func(a, b graph.NodeID) int { return cmp.Compare(dist[b], dist[a]) })
	defer func() { w.Nodes = order[:0] }()
	s := &searcher{ctx: ctx, sub: sub, dist: dist, q: q, k: k, cfg: cfg, order: order, best: math.Inf(1)}
	for _, v := range sub.Universe() {
		s.sumDist += dist[v]
	}
	s.record()
	s.enumerate(math.Inf(1))
	// The search tracks δ incrementally; recompute it exactly for the
	// winner so callers can compare against attr.Delta bit-for-bit.
	res := Result{
		Community: s.bestSet,
		Delta:     attr.Delta(dist, s.bestSet, q),
		Stats:     s.stats,
	}
	if s.interrupted {
		return res, cserr.Interruptedf(ctx.Err(), "exact: search interrupted after %d states", s.stats.States)
	}
	if s.exceeded {
		return res, ErrBudgetExhausted
	}
	return res, nil
}

// record scores the current state and keeps it if it beats the best.
func (s *searcher) record() {
	s.stats.CandidatesScored++
	d := s.delta()
	if d < s.best {
		s.best = d
		s.bestSet = s.sub.Members(s.bestSet[:0])
	}
}

// delta returns δ of the current state from the maintained distance sum.
func (s *searcher) delta() float64 {
	n := s.sub.Size() - 1
	if n <= 0 {
		return 0
	}
	return s.sumDist / float64(n)
}

// lowerBound computes the Theorem-6 bound: the mean of the k smallest
// f(·,q) among alive nodes other than q (Eqs. 3–4), the first k alive nodes
// of the order's tail.
func (s *searcher) lowerBound() float64 {
	sum, n := 0.0, 0
	for i := len(s.order) - 1; i >= 0 && n < s.k; i-- {
		if v := s.order[i]; s.sub.Alive(v) {
			sum += s.dist[v]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// enumerate implements the Enumerate procedure of Algorithm 1. fuq is the
// composite distance of the node whose deletion produced the current state
// (+Inf at the root).
func (s *searcher) enumerate(fuq float64) {
	s.stats.States++
	if s.cfg.MaxStates > 0 && s.stats.States > s.cfg.MaxStates {
		s.exceeded = true
		return
	}
	if s.stats.States&ctxCheckMask == 0 && s.ctx.Err() != nil {
		s.interrupted = true
		return
	}
	// P3: prune unpromising states (Theorem 6).
	if s.cfg.PruneUnpromising {
		if s.lowerBound() >= s.best {
			s.stats.PrunedUnpromise++
			return
		}
	}
	// P2: only delete nodes with f(·,q) > δ(current) (Theorem 5). Every
	// sibling subtree is explored and restored before the next candidate, so
	// the alive set, and with it the candidates, are this state's throughout.
	curDelta := s.delta()
	walk := s.sub.Universe()
	if s.cfg.PruneDuplicates {
		walk = s.order // priority enumeration: descending f(·,q)
	}
	for _, v := range walk {
		if s.exceeded || s.interrupted {
			break
		}
		if v == s.q || !s.sub.Alive(v) {
			continue
		}
		if s.cfg.PruneUnnecessary && s.dist[v] <= curDelta {
			if s.cfg.PruneDuplicates {
				break // the rest of the order is no farther from q
			}
			continue
		}
		removed, qAlive := s.sub.RemoveCascade(v)
		if !qAlive || s.sub.Size() < s.k+1 {
			s.sub.Restore()
			continue
		}
		// P1 (Theorem 4): vm = removed node with the largest f(·,q).
		if s.cfg.PruneDuplicates {
			fm := 0.0
			for _, w := range removed {
				if s.dist[w] > fm {
					fm = s.dist[w]
				}
			}
			if fm > fuq {
				s.stats.PrunedDuplicate++
				s.sub.Restore()
				continue
			}
		}
		for _, w := range removed {
			s.sumDist -= s.dist[w]
		}
		s.record()
		s.enumerate(s.dist[v])
		for _, w := range removed { // still this call's window
			s.sumDist += s.dist[w]
		}
		s.sub.Restore()
	}
}

// BruteForce enumerates every subset of g's nodes that contains q and forms a
// connected k-core, returning the one with minimum δ. It is exponential in
// the number of nodes (≤ 20) and exists as the ground-truth oracle for tests.
func BruteForce(g graph.Adjacency, q graph.NodeID, k int, dist []float64) (Result, error) {
	n := g.NumNodes()
	if n > 20 {
		return Result{}, fmt.Errorf("exact: BruteForce limited to 20 nodes, got %d", n)
	}
	best := math.Inf(1)
	var bestSet []graph.NodeID
	members := make([]graph.NodeID, 0, n)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&(1<<uint(q)) == 0 {
			continue
		}
		members = members[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				members = append(members, graph.NodeID(v))
			}
		}
		if len(members) < k+1 {
			continue
		}
		if !kcore.InKCoreSet(g, members, k) {
			continue
		}
		if !connectedSet(g, members, q) {
			continue
		}
		d := attr.Delta(dist, members, q)
		if d < best {
			best = d
			bestSet = append([]graph.NodeID(nil), members...)
		}
	}
	if bestSet == nil {
		return Result{}, ErrNoCommunity
	}
	return Result{Community: bestSet, Delta: best}, nil
}

// connectedSet reports whether members induce a connected subgraph reaching
// q. Membership and visitation use epoch-stamped sets from the workspace
// pool instead of per-call maps.
func connectedSet(g graph.Adjacency, members []graph.NodeID, q graph.NodeID) bool {
	w := ws.Get()
	defer w.Release()
	in := &w.Member
	in.Reset(g.NumNodes())
	for _, v := range members {
		in.Add(v)
	}
	if !in.Has(q) {
		return false
	}
	seen := &w.Visited
	seen.Reset(g.NumNodes())
	seen.Add(q)
	stack := append(w.Nodes[:0], q)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.NeighborsInto(&w.NbrA, v) {
			if in.Has(u) && seen.Add(u) {
				stack = append(stack, u)
			}
		}
	}
	w.Nodes = stack[:0]
	return seen.Len() == len(members)
}
