package sea

// Influential community search, the §VI-A extension sketched for
// heterogeneous influential communities (HIC): find the connected k-core
// containing q that maximizes the community's minimum member influence, and
// report an EVT-based estimate of the maximum influence reachable in q's
// neighborhood (the paper proposes Extreme Value Theory for the MAX-value
// estimation of influence-vector elements).

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/stats"
	"repro/internal/ws"
)

// InfluentialResult is the outcome of an influential community search.
type InfluentialResult struct {
	Community []graph.NodeID // the max-min-influence connected k-core with q
	// MinInfluence is the community's influence value (the minimum over
	// members), the objective being maximized.
	MinInfluence float64
	// MaxEstimate is the EVT estimate of the maximum influence present in
	// the search region, quantifying how influential the neighborhood could
	// get (§VI-A's EVT-based MAX estimation).
	MaxEstimate stats.MaxEstimate
}

// InfluentialSearch finds the connected k-core containing q whose minimum
// member influence is maximal, by peeling minimum-influence nodes while the
// structure survives — the standard influential-community peeling, which is
// exact for the max-min objective. influence[v] is v's influence score
// (e.g. an h-index or PageRank); len(influence) must equal g.NumNodes().
// The maintainer it peels lives in a pooled workspace held for the whole
// search.
func InfluentialSearch(g graph.Adjacency, q graph.NodeID, k int, influence []float64) (*InfluentialResult, error) {
	if len(influence) != g.NumNodes() {
		return nil, fmt.Errorf("sea: influence vector has %d entries for %d nodes", len(influence), g.NumNodes())
	}
	w := ws.Get()
	defer w.Release() // the maintainer lives in w
	sub, _ := kcore.MaximalSubIn(context.Background(), g, q, k, nil, math.MaxInt, w)
	if sub == nil {
		return nil, ErrNoCommunity
	}
	members := sub.Universe()
	// The peel order, sorted once: the alive nodes other than q by ascending
	// influence, ties in universe order, so the next node to peel and the
	// community's least influence are both at the cursor.
	order := slices.DeleteFunc(append(w.Nodes[:0], members...), func(v graph.NodeID) bool { return v == q })
	slices.SortStableFunc(order, func(a, b graph.NodeID) int { return cmp.Compare(influence[a], influence[b]) })
	defer func() { w.Nodes = order[:0] }()
	// steps counts the removals still open; the best community is the alive
	// set after the first bestSteps of them.
	var bestMin float64
	steps, bestSteps := 0, 0
	for next := 0; ; steps++ {
		for next < len(order) && !sub.Alive(order[next]) {
			next++
		}
		mi := influence[q]
		if next < len(order) && influence[order[next]] < mi {
			mi = influence[order[next]]
		}
		if steps == 0 || mi > bestMin {
			bestMin, bestSteps = mi, steps
		}
		if next == len(order) {
			break
		}
		if _, qAlive := sub.RemoveCascade(order[next]); !qAlive || sub.Size() < k+1 {
			sub.Restore()
			break
		}
	}
	for ; steps > bestSteps; steps-- {
		sub.Restore()
	}
	best := sub.Members(make([]graph.NodeID, 0, sub.Size()))

	res := &InfluentialResult{Community: best, MinInfluence: bestMin}
	// EVT max estimation over the influence values of the search region.
	values := make([]float64, 0, len(members))
	for _, v := range members {
		values = append(values, influence[v])
	}
	if est, err := stats.EstimateMax(values, 0.2); err == nil {
		res.MaxEstimate = est
	} else {
		res.MaxEstimate = stats.MaxEstimate{Max: maxOf(values), SampleMax: maxOf(values)}
	}
	return res, nil
}

func maxOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	max := values[0]
	for _, x := range values[1:] {
		if x > max {
			max = x
		}
	}
	return max
}
