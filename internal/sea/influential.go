package sea

// Influential community search, the §VI-A extension sketched for
// heterogeneous influential communities (HIC): find the connected k-core
// containing q that maximizes the community's minimum member influence, and
// report an EVT-based estimate of the maximum influence reachable in q's
// neighborhood (the paper proposes Extreme Value Theory for the MAX-value
// estimation of influence-vector elements).

import (
	"context"
	"fmt"

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
	sub := kcore.MaximalSubIn(context.Background(), g, q, k, nil, w)
	if sub == nil {
		return nil, ErrNoCommunity
	}
	members := sub.Universe()
	best := append([]graph.NodeID(nil), members...)
	bestMin := minInfluence(influence, best)
	buf := make([]graph.NodeID, 0, len(members))
	for {
		buf = sub.Members(buf[:0])
		// Peel the alive node with minimum influence (never q).
		var worst graph.NodeID = -1
		worstI := 0.0
		for _, v := range buf {
			if v == q {
				continue
			}
			if worst < 0 || influence[v] < worstI {
				worst = v
				worstI = influence[v]
			}
		}
		if worst < 0 {
			break
		}
		if _, qAlive := sub.RemoveCascade(worst); !qAlive || sub.Size() < k+1 {
			sub.Restore()
			break
		}
		cur := sub.Members(nil)
		if mi := minInfluence(influence, cur); mi > bestMin {
			bestMin = mi
			best = cur
		}
	}

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

func minInfluence(influence []float64, members []graph.NodeID) float64 {
	min := influence[members[0]]
	for _, v := range members[1:] {
		if influence[v] < min {
			min = influence[v]
		}
	}
	return min
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
