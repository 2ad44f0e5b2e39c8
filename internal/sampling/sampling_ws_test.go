package sampling

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

func wsTestGraph(t *testing.T) (*graph.Graph, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	n := 300
	b := graph.NewBuilder(n, 0)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	g := b.MustBuild()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = rng.Float64()
	}
	return g, dist
}

// TestProbabilitiesIntoAppends: ProbabilitiesInto must append after existing
// elements and normalize only its own segment.
func TestProbabilitiesIntoAppends(t *testing.T) {
	g, dist := wsTestGraph(t)
	gq := BuildGqInto(nil, g, 0, dist, 50, testWS(t))
	prefix := []float64{42}
	out := ProbabilitiesInto(prefix, gq, dist)
	if out[0] != 42 || len(out) != 51 {
		t.Fatalf("prefix clobbered: %v len %d", out[0], len(out))
	}
	sum := 0.0
	for _, p := range out[1:] {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum %v, want 1", sum)
	}
}

// TestBuildGqAppendsAFreshExpansion: a non-empty dst is kept as it is and
// the expansion appended after it is the one an empty dst gets, minSize
// nodes long, whatever expansion ran on the workspace before.
func TestBuildGqAppendsAFreshExpansion(t *testing.T) {
	g, dist := wsTestGraph(t)
	w := testWS(t)
	for q := graph.NodeID(0); q < 20; q++ {
		for _, size := range []int{1, 7, 56, 1000} {
			want := BuildGqInto(nil, g, q, dist, size, testWS(t))
			BuildGqInto(nil, g, q+1, dist, 2*size, w)
			prefix := []graph.NodeID{42, 43}
			got := BuildGqInto(prefix, g, q, dist, size, w)
			if !slices.Equal(got[:2], []graph.NodeID{42, 43}) || !slices.Equal(got[2:], want) {
				t.Fatalf("q %d size %d: appended %v, want %v after [42 43]", q, size, got, want)
			}
		}
	}
}

// samplePowKeys is WeightedSampleInto as it was before the key shortcut:
// every positive-weight key comes from math.Pow.
func samplePowKeys(population []graph.NodeID, weights []float64, size int, q graph.NodeID, rng *rand.Rand) []graph.NodeID {
	if size >= len(population) {
		return append([]graph.NodeID(nil), population...)
	}
	if size < 1 {
		size = 1
	}
	var keys []ws.NodeDist
	for i, v := range population {
		wt := weights[i]
		var key float64
		switch {
		case v == q:
			key = math.Inf(1)
		case wt <= 0:
			key = -rng.Float64()
		default:
			key = math.Pow(rng.Float64(), 1/wt)
		}
		keys = append(keys, ws.NodeDist{V: v, D: key})
	}
	slices.SortFunc(keys, byKeyDesc)
	var out []graph.NodeID
	for i := 0; i < size; i++ {
		out = append(out, keys[i].V)
	}
	return out
}

// TestKeyShortcutEqualsPow: wherever WeightedSampleInto skips math.Pow — the
// exponent p = 1/w and the draw u have p(u−1) < −800 — math.Pow(u, p) is
// exactly 0, so the sample is the one the unconditional call draws.
func TestKeyShortcutEqualsPow(t *testing.T) {
	fired, lowest := 0, 0.0
	check := func(u, p float64) {
		x := p * (u - 1)
		got := math.Pow(u, p)
		if x < -800 {
			fired++
			if got != 0 {
				t.Fatalf("u=%v p=%v: p(u-1)=%v is below the cut but math.Pow gives %v", u, p, x, got)
			}
		} else if got != 0 && x < lowest {
			lowest = x
		}
	}
	pairs := 10_000_000
	if testing.Short() {
		pairs /= 20
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < pairs; i++ {
		check(rng.Float64(), math.Exp(rng.Float64()*math.Log(1e6))) // 1/w log-uniform in [1, 1e6]
	}
	// The band around the cut, where the results are subnormal or just 0.
	for i := 0; i < pairs/10; i++ {
		p := math.Exp(rng.Float64() * math.Log(1e6))
		x := -700 - 120*rng.Float64()
		if u := 1 + x/p; u >= 0 {
			check(u, p)
		}
	}
	oneBelow := 1 - 1.0/(1<<53)
	for _, p := range []float64{1, 2, 799, 800, 801, 1e4, 1e6, 1e15, 7.2e18, 1e19, math.MaxFloat64, math.Inf(1)} {
		for _, u := range []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.5, oneBelow} {
			check(u, p)
		}
	}
	if fired < pairs/4 {
		t.Errorf("the shortcut fired on %d of %d pairs: the test does not reach it", fired, pairs)
	}
	if lowest < -745.2 {
		t.Errorf("a non-zero power at p(u-1) = %v: the cut at -800 has less room than claimed", lowest)
	}
	t.Logf("%d pairs, shortcut fired on %d, most negative p(u-1) with a non-zero power %.2f", pairs+pairs/10, fired, lowest)

	// And the samples themselves, sizes from 1 to the whole population.
	w := testWS(t)
	for seed := int64(0); seed < 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		population := make([]graph.NodeID, n)
		weights := make([]float64, n)
		sum := 0.0
		for i, v := range rng.Perm(n) {
			population[i] = graph.NodeID(v)
			if rng.Intn(10) > 0 {
				weights[i] = rng.Float64()
				sum += weights[i]
			}
		}
		if sum > 0 && rng.Intn(4) > 0 {
			scale := sum * float64(int(1)<<uint(rng.Intn(12))) // down to exponents in the 10⁵s
			for i := range weights {
				weights[i] /= scale
			}
		}
		q := graph.NodeID(rng.Intn(n+1) - 1)
		size := 1 + rng.Intn(n)
		want := samplePowKeys(population, weights, size, q, rand.New(rand.NewSource(seed)))
		got := WeightedSampleInto(nil, population, weights, size, q, rand.New(rand.NewSource(seed)), w)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: sample of %d from %d differs from the math.Pow keys:\n%v\n%v", seed, size, n, got, want)
		}
	}
}
