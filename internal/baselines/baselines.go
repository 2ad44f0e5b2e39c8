// Package baselines re-implements the competitor community-search methods of
// the paper's experimental study (§VII-A), from their original definitions:
//
//   - ACQ (Fang et al., PVLDB'16): maximize the number of q's attributes
//     shared by every member of a connected k-core.
//   - LocATC (Huang & Lakshmanan, PVLDB'17): local search maximizing the
//     attribute coverage score Σ_a |V_a ∩ V_H|² / |V_H| over q's attributes.
//   - VAC (Liu et al., ICDE'20): minimize the maximum pairwise attribute
//     distance inside the community; an approximate peeling variant and an
//     exact branch-and-bound variant (E-VAC).
//
// Each method exists for the k-core and k-truss structure models (the
// request's sea.Model) through the shared cohesive.Maintainer interface, and
// runs under a context: its loop checks ctx before every trial and, when
// cancelled, returns the best community found so far with ctx's error
// wrapped, like sea.SearchContext and exact.SearchContext.
package baselines

import (
	"context"
	"math"
	"sort"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/sea"
	"repro/internal/ws"
)

// ErrNoCommunity is returned when the query has no qualifying community.
// It is the shared sentinel of internal/cserr, so errors.Is matches it
// across every search method.
var ErrNoCommunity = cserr.ErrNoCommunity

// interrupted builds the cancelled-search return for a baseline: the best
// community found so far (nil when none) with ctx's error wrapped.
func interrupted(ctx context.Context, name string, best []graph.NodeID) ([]graph.NodeID, error) {
	return best, cserr.Interruptedf(ctx.Err(), "baselines: %s interrupted", name)
}

// ACQ finds a connected k-core containing q whose members all share as many
// of q's textual attributes as possible. It examines q's attributes in
// decreasing selectivity, greedily growing the shared set while a qualifying
// community survives, per the ACQ algorithm's core idea.
func ACQ(ctx context.Context, g graph.Store, q graph.NodeID, k int, model sea.Model) ([]graph.NodeID, error) {
	base := MaximalMembers(g, q, k, model)
	if base == nil {
		return nil, ErrNoCommunity
	}
	qAttrs := g.TextAttrs(q)
	best := base
	shared := []int32{}
	// Greedily extend the shared attribute set: at each step try adding each
	// remaining attribute of q and keep the one preserving the largest
	// community; stop when no attribute can be added.
	remaining := append([]int32(nil), qAttrs...)
	for {
		if ctx.Err() != nil {
			return interrupted(ctx, "acq", best)
		}
		var bestAttr int32 = -1
		var bestSet []graph.NodeID
		for _, a := range remaining {
			if ctx.Err() != nil {
				return interrupted(ctx, "acq", best)
			}
			trial := append(append([]int32(nil), shared...), a)
			set := communityWithAttrs(g, q, k, model, trial)
			if set != nil && (bestSet == nil || len(set) > len(bestSet)) {
				bestAttr = a
				bestSet = set
			}
		}
		if bestAttr < 0 {
			break
		}
		shared = append(shared, bestAttr)
		best = bestSet
		out := remaining[:0]
		for _, a := range remaining {
			if a != bestAttr {
				out = append(out, a)
			}
		}
		remaining = out
	}
	return best, nil
}

// communityWithAttrs returns the members of the maximal connected structure
// containing q restricted to nodes having every attribute in attrs, or nil.
// With no attrs that is every node, and the extraction reads only what q
// reaches.
func communityWithAttrs(g graph.Store, q graph.NodeID, k int, model sea.Model, attrs []int32) []graph.NodeID {
	w := ws.Get()
	defer w.Release()
	var in *graph.NodeSet
	if len(attrs) > 0 {
		in = &w.Member
		in.Reset(g.NumNodes())
		for v := range graph.NodeID(g.NumNodes()) {
			if hasAll(g.TextAttrs(v), attrs) {
				in.Add(v)
			}
		}
	}
	if maint, _ := sea.Maximal(context.Background(), g, q, k, model, in, math.MaxInt, w); maint != nil {
		return maint.Members(nil)
	}
	return nil
}

// hasAll reports whether the sorted token set have contains every want token.
func hasAll(have, want []int32) bool {
	i := 0
	for _, w := range want {
		for i < len(have) && have[i] < w {
			i++
		}
		if i >= len(have) || have[i] != w {
			return false
		}
	}
	return true
}

// MaximalMembers returns the members of q's maximal connected k-core or
// k-truss (per model), or nil when q has none: the structural baseline, and
// the start of every peeling baseline.
func MaximalMembers(g graph.Store, q graph.NodeID, k int, model sea.Model) []graph.NodeID {
	return communityWithAttrs(g, q, k, model, nil)
}

// CoverageScore computes the LocATC objective over q's attributes:
// Σ_a |V_a ∩ V_H|² / |V_H|.
func CoverageScore(g graph.Store, q graph.NodeID, members []graph.NodeID) float64 {
	if len(members) == 0 {
		return 0
	}
	counts := map[int32]int{}
	for _, v := range members {
		for _, a := range g.TextAttrs(v) {
			counts[a]++
		}
	}
	score := 0.0
	for _, a := range g.TextAttrs(q) {
		c := float64(counts[a])
		score += c * c
	}
	return score / float64(len(members))
}

// LocATC performs the local search of ATC: starting from the maximal
// connected structure, iteratively remove the node whose removal most
// improves the attribute coverage score, stopping at a local optimum.
func LocATC(ctx context.Context, g graph.Store, q graph.NodeID, k int, model sea.Model) ([]graph.NodeID, error) {
	w := ws.Get()
	defer w.Release() // the maintainer lives in w
	maint, _ := sea.Maximal(context.Background(), g, q, k, model, nil, math.MaxInt, w)
	if maint == nil {
		return nil, ErrNoCommunity
	}
	best := maint.Members(nil)
	bestScore := CoverageScore(g, q, best)
	buf := make([]graph.NodeID, 0, len(best))
	// Local search: per step, trial-remove the nodes sharing the fewest of
	// q's attributes (capped — removing a low-overlap node is what raises
	// the coverage score) and keep the best single removal.
	const maxTrials = 48
	qAttrs := g.TextAttrs(q)
	for {
		buf = maint.Members(buf[:0])
		if len(buf) <= model.MinSize(k) {
			break
		}
		sort.Slice(buf, func(i, j int) bool {
			return attr.SharedTokens(g.TextAttrs(buf[i]), qAttrs) <
				attr.SharedTokens(g.TextAttrs(buf[j]), qAttrs)
		})
		trials := buf
		if len(trials) > maxTrials {
			trials = trials[:maxTrials]
		}
		var bestV graph.NodeID = -1
		bestTrial := -math.MaxFloat64
		var bestRemoved []graph.NodeID
		for _, v := range trials {
			if ctx.Err() != nil {
				return interrupted(ctx, "locatc", best)
			}
			if v == maint.Query() {
				continue
			}
			if _, qAlive := maint.RemoveCascade(v); qAlive && maint.Size() >= model.MinSize(k) {
				trialMembers := maint.Members(nil)
				score := CoverageScore(g, q, trialMembers)
				if score > bestTrial {
					bestTrial = score
					bestV = v
					bestRemoved = trialMembers
				}
			}
			maint.Restore()
		}
		if bestV < 0 || bestTrial <= bestScore {
			break
		}
		bestScore = bestTrial
		best = bestRemoved
		if _, qAlive := maint.RemoveCascade(bestV); !qAlive {
			maint.Restore()
			break
		}
	}
	return best, nil
}

// VAC is the approximate vertex-centric attributed community search: peel
// the node of maximum attribute distance to the rest of the community while
// the structure survives; stop when the worst-case pair cannot be improved.
// This mirrors the 2-approximation peeling of the VAC paper, using distance
// to the farthest member as the vertex score.
func VAC(ctx context.Context, g graph.Store, m *attr.Metric, q graph.NodeID, k int, model sea.Model) ([]graph.NodeID, error) {
	w := ws.Get()
	defer w.Release() // the maintainer lives in w
	maint, _ := sea.Maximal(context.Background(), g, q, k, model, nil, math.MaxInt, w)
	if maint == nil {
		return nil, ErrNoCommunity
	}
	best := maint.Members(nil)
	bestObj := m.MaxPairwise(best)
	buf := make([]graph.NodeID, 0, len(best))
	for {
		if ctx.Err() != nil {
			return interrupted(ctx, "vac", best)
		}
		buf = maint.Members(buf[:0])
		if len(buf) <= model.MinSize(k) {
			break
		}
		// The max-distance pair dominates the objective; try deleting each
		// endpoint of the worst pair (not q).
		a, b := worstPair(m, buf)
		improved := false
		for _, v := range []graph.NodeID{a, b} {
			if ctx.Err() != nil {
				return interrupted(ctx, "vac", best)
			}
			if v == maint.Query() || v < 0 {
				continue
			}
			if _, qAlive := maint.RemoveCascade(v); qAlive && maint.Size() >= model.MinSize(k) {
				trial := maint.Members(nil)
				obj := m.MaxPairwise(trial)
				if obj < bestObj {
					bestObj = obj
					best = trial
					improved = true
					break // keep the deletion
				}
			}
			maint.Restore()
		}
		if !improved {
			break
		}
	}
	return best, nil
}

// worstPair returns the pair of members with maximum composite distance.
func worstPair(m *attr.Metric, members []graph.NodeID) (graph.NodeID, graph.NodeID) {
	var a, b graph.NodeID = -1, -1
	worst := -1.0
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if d := m.Distance(members[i], members[j]); d > worst {
				worst = d
				a, b = members[i], members[j]
			}
		}
	}
	return a, b
}

// EVAC is the exact min-max search: branch-and-bound over node deletions
// minimizing the maximum pairwise distance. Exponential, so guarded by
// maxStates: ≤ 0 means unlimited; when a positive budget is hit, the
// best-so-far is returned with ErrBudgetExhausted, symmetric with
// exact.SearchContext. ctx is checked on every state.
func EVAC(ctx context.Context, g graph.Store, m *attr.Metric, q graph.NodeID, k int, model sea.Model, maxStates int) ([]graph.NodeID, error) {
	w := ws.Get()
	defer w.Release() // the maintainer lives in w
	maint, _ := sea.Maximal(context.Background(), g, q, k, model, nil, math.MaxInt, w)
	if maint == nil {
		return nil, ErrNoCommunity
	}
	best := maint.Members(nil)
	bestObj := m.MaxPairwise(best)
	states := 0
	cancelled := false
	exceeded := func() bool { return maxStates > 0 && states > maxStates }
	var rec func()
	buf := make([]graph.NodeID, 0, len(best))
	rec = func() {
		states++
		if exceeded() {
			return
		}
		if ctx.Err() != nil {
			cancelled = true
			return
		}
		buf = maint.Members(buf[:0])
		cur := append([]graph.NodeID(nil), buf...)
		obj := m.MaxPairwise(cur)
		if obj < bestObj {
			bestObj = obj
			best = cur
		}
		if len(cur) <= model.MinSize(k) {
			return
		}
		a, b := worstPair(m, cur)
		for _, v := range []graph.NodeID{a, b} {
			if v == maint.Query() || v < 0 || exceeded() || cancelled {
				continue
			}
			if _, qAlive := maint.RemoveCascade(v); qAlive && maint.Size() >= model.MinSize(k) {
				rec()
			}
			maint.Restore()
		}
	}
	rec()
	if cancelled {
		return interrupted(ctx, "evac", best)
	}
	if exceeded() {
		return best, cserr.ErrBudgetExhausted
	}
	return best, nil
}
