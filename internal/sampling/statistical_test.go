package sampling

// Statistical tests on the weighted sampler: beyond the contract checks in
// sampling_test.go, verify that inclusion frequencies actually track the
// requested probabilities (the property Eq. 5's attribute-aware sampling
// relies on).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func TestWeightedSampleInclusionFrequencies(t *testing.T) {
	// Population of 20 nodes with linearly increasing weights; draw samples
	// of size 5 many times and compare empirical inclusion frequencies with
	// the A-ES inclusion ordering: higher weight ⇒ included at least as
	// often (within noise).
	const n, size, trials = 20, 5, 4000
	pop := make([]graph.NodeID, n)
	w := make([]float64, n)
	for i := range pop {
		pop[i] = graph.NodeID(i)
		w[i] = float64(i + 1)
	}
	rng := rand.New(rand.NewSource(123))
	wk := testWS(t)
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		for _, v := range WeightedSampleInto(nil, pop, w, size, -1, rng, wk) {
			counts[v]++
		}
	}
	// Bucket nodes into quartiles by weight; frequencies must increase
	// strictly across quartiles.
	quartile := func(lo, hi int) float64 {
		sum := 0
		for i := lo; i < hi; i++ {
			sum += counts[i]
		}
		return float64(sum) / float64(hi-lo) / trials
	}
	q1, q2, q3, q4 := quartile(0, 5), quartile(5, 10), quartile(10, 15), quartile(15, 20)
	if !(q1 < q2 && q2 < q3 && q3 < q4) {
		t.Errorf("inclusion frequencies not increasing with weight: %.3f %.3f %.3f %.3f", q1, q2, q3, q4)
	}
	// The top node (weight 20) must be drawn far more often than the bottom
	// one (weight 1).
	if counts[19] < counts[0]*3 {
		t.Errorf("weight-20 node drawn %d times vs weight-1 node %d", counts[19], counts[0])
	}
}

func TestRouletteMatchesWeightedDistribution(t *testing.T) {
	// Both samplers target the same distribution; their per-node inclusion
	// frequencies over many draws must agree within a few percent.
	const n, size, trials = 12, 3, 3000
	pop := make([]graph.NodeID, n)
	w := make([]float64, n)
	for i := range pop {
		pop[i] = graph.NodeID(i)
		w[i] = 1 + float64(i%4)
	}
	countA := make([]float64, n)
	countB := make([]float64, n)
	rngA := rand.New(rand.NewSource(1))
	rngB := rand.New(rand.NewSource(2))
	wk := testWS(t)
	for trial := 0; trial < trials; trial++ {
		// Both samplers force-include the same q so the number of free
		// slots matches.
		for _, v := range WeightedSampleInto(nil, pop, w, size, pop[0], rngA, wk) {
			countA[v]++
		}
		for _, v := range rouletteSample(pop, w, size, pop[0], rngB) {
			countB[v]++
		}
	}
	// Node 0 is the forced q in both samplers, so skip it.
	for v := 1; v < n; v++ {
		fa := countA[v] / trials
		fb := countB[v] / trials
		if math.Abs(fa-fb) > 0.08 {
			t.Errorf("node %d: inclusion %.3f (A-ES) vs %.3f (roulette)", v, fa, fb)
		}
	}
}
