package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.025, -1.959964},
		{0.99, 2.326348},
		{0.995, 2.575829},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile boundary values wrong")
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Mod(math.Abs(raw), 0.5)
		if p == 0 {
			return true
		}
		a, b := NormalQuantile(0.5+p), NormalQuantile(0.5-p)
		return math.Abs(a+b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZAlphaHalf(t *testing.T) {
	z, err := ZAlphaHalf(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z-1.959964) > 1e-5 {
		t.Errorf("z(95%%) = %v, want 1.96", z)
	}
	if _, err := ZAlphaHalf(0); err == nil {
		t.Error("accepted confidence 0")
	}
	if _, err := ZAlphaHalf(1); err == nil {
		t.Error("accepted confidence 1")
	}
}

func TestCI(t *testing.T) {
	ci := CI{Center: 0.3, MoE: 0.05, Confidence: 0.95}
	if ci.Lo() != 0.25 || ci.Hi() != 0.35 {
		t.Errorf("bounds = [%v,%v]", ci.Lo(), ci.Hi())
	}
	if !ci.Covers(0.3) || !ci.Covers(0.25) || ci.Covers(0.2) {
		t.Error("Covers wrong")
	}
	if ci.String() == "" {
		t.Error("empty String")
	}
}

func TestTheorem11StoppingRule(t *testing.T) {
	// Example 6 of the paper: δ*=0.3, e=0.01 → threshold 0.3·0.01/1.01.
	target := MoETarget(0.3, 0.01)
	if math.Abs(target-0.3*0.01/1.01) > 1e-12 {
		t.Errorf("MoETarget = %v", target)
	}
	ci := CI{Center: 0.3, MoE: target * 0.99, Confidence: 0.95}
	if !ci.SatisfiesErrorBound(0.01) {
		t.Error("tight CI rejected")
	}
	ci.MoE = target * 1.01
	if ci.SatisfiesErrorBound(0.01) {
		t.Error("loose CI accepted")
	}
}

// TestTheorem11Guarantee verifies the substance of Theorem 11: whenever the
// exact δ lies inside the CI and ε ≤ δ*·e/(1+e), the relative error is ≤ e.
func TestTheorem11Guarantee(t *testing.T) {
	f := func(rawCenter, rawOff, rawE float64) bool {
		center := 0.05 + math.Mod(math.Abs(rawCenter), 1)
		e := 0.005 + math.Mod(math.Abs(rawE), 0.3)
		moe := MoETarget(center, e)
		// δ anywhere inside [δ*−ε, δ*+ε]:
		off := math.Mod(math.Abs(rawOff), 2) - 1 // in [-1,1]
		delta := center + off*moe
		if delta <= 0 {
			return true
		}
		relErr := math.Abs(center-delta) / delta
		return relErr <= e+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMinPossibleWorldsPaperExample(t *testing.T) {
	// Example 5: DBLP n=682819, k=30 → m=31, ϵ=0.05, β=0.02 gives ≈ 16624
	// worlds, so Gq needs ≈ 16625 nodes.
	size, err := MinGqSizeCore(0.05, 0.02, 30, 682819)
	if err != nil {
		t.Fatal(err)
	}
	if size < 16000 || size > 17500 {
		t.Errorf("MinGqSizeCore = %d, want ≈16625", size)
	}
}

func TestMinGqSizeMonotonicity(t *testing.T) {
	base, _ := MinGqSizeCore(0.05, 0.05, 8, 100000)
	stricterEps, _ := MinGqSizeCore(0.01, 0.05, 8, 100000)
	stricterBeta, _ := MinGqSizeCore(0.05, 0.01, 8, 100000)
	biggerK, _ := MinGqSizeCore(0.05, 0.05, 16, 100000)
	if stricterEps <= base {
		t.Errorf("smaller ϵ should need more nodes: %d vs %d", stricterEps, base)
	}
	if stricterBeta <= base {
		t.Errorf("smaller β should need more nodes: %d vs %d", stricterBeta, base)
	}
	if biggerK <= base {
		t.Errorf("larger k should need more nodes: %d vs %d", biggerK, base)
	}
}

func TestMinGqSizeClamped(t *testing.T) {
	size, err := MinGqSizeCore(0.05, 0.05, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if size > 500 {
		t.Errorf("size %d exceeds population", size)
	}
}

func TestMinGqVariants(t *testing.T) {
	core, _ := MinGqSizeCore(0.05, 0.05, 10, 1e6)
	truss, _ := MinGqSizeTruss(0.05, 0.05, 10, 1e6)
	sized, _ := MinGqSizeSizeBounded(0.05, 0.05, 30, 1e6)
	if truss > core {
		t.Errorf("truss bound (m=k) should not exceed core bound (m=k+1): %d vs %d", truss, core)
	}
	if sized <= core {
		t.Errorf("size-bounded with l=30 should exceed core with k=10: %d vs %d", sized, core)
	}
}

func TestMinPossibleWorldsErrors(t *testing.T) {
	if _, err := MinPossibleWorlds(0, 0.05, 5, 100); err == nil {
		t.Error("accepted eps=0")
	}
	if _, err := MinPossibleWorlds(0.05, 1.5, 5, 100); err == nil {
		t.Error("accepted beta>1")
	}
	if _, err := MinPossibleWorlds(0.05, 0.05, 100, 100); err == nil {
		t.Error("accepted m=n")
	}
}

// TestIncrementalSampleSizeIsSmallestSufficient is Eq. 12 as a property: a
// margin that scales as 1/√n, ε·√(n/(n+m)) after m more values, reaches the
// target at m = ΔS and not at ΔS − 1 (ΔS ≥ 1), and the cap holds.
func TestIncrementalSampleSizeIsSmallestSufficient(t *testing.T) {
	reaches := func(moe, target float64, n, m int) bool {
		return moe*math.Sqrt(float64(n)/float64(n+m)) <= target*(1+1e-12)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(60)
		target := 0.001 + rng.Float64()*0.05
		moe := target * (1 + rng.ExpFloat64()*3)
		ds := IncrementalSampleSize(moe, target, n)
		if ds < 1 {
			t.Fatalf("ε=%v target=%v n=%d: ΔS = %d, want ≥ 1", moe, target, n, ds)
		}
		if !reaches(moe, target, n, ds) {
			t.Fatalf("ε=%v target=%v n=%d: ΔS = %d leaves ε·√(n/(n+ΔS)) = %v above the target",
				moe, target, n, ds, moe*math.Sqrt(float64(n)/float64(n+ds)))
		}
		if ds > 1 && moe*math.Sqrt(float64(n)/float64(n+ds-1)) < target*(1-1e-12) {
			t.Fatalf("ε=%v target=%v n=%d: ΔS = %d, but %d values already reach the target", moe, target, n, ds, ds-1)
		}
	}
	if ds := IncrementalSampleSize(1, 1e-9, 1000); ds != 1<<30 {
		t.Errorf("ΔS = %d for a ratio of 10⁹, want the cap 2³⁰", ds)
	}
}

func TestIncrementalSampleSizeEdgeCases(t *testing.T) {
	if ds := IncrementalSampleSize(0.001, 0.002, 20); ds != 0 {
		t.Errorf("ΔS = %d when ε below target, want 0", ds)
	}
	if ds := IncrementalSampleSize(0.002001, 0.002, 20); ds < 1 {
		t.Errorf("ΔS = %d, want ≥ 1", ds)
	}
	if ds := IncrementalSampleSize(0.004, 0.002, 0); ds != 0 {
		t.Errorf("ΔS = %d with no values estimated, want 0", ds)
	}
}

func TestIncrementalSampleSizeMonotone(t *testing.T) {
	target := MoETarget(0.3, 0.02)
	prev := 0
	for _, moe := range []float64{0.007, 0.01, 0.02, 0.04} {
		ds := IncrementalSampleSize(moe, target, 20)
		if ds <= prev {
			t.Errorf("ΔS not monotone in MoE: %d after %d", ds, prev)
		}
		prev = ds
	}
}

func TestBLBCoverage(t *testing.T) {
	// The 95% CI should cover the true population mean in most trials.
	trueMean := 0.4
	trials := 60
	covered := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		values := make([]float64, 600)
		for i := range values {
			values[i] = math.Min(1, math.Max(0, trueMean+rng.NormFloat64()*0.15))
		}
		res, err := BLB(values, DefaultBLB(), rng)
		if err != nil {
			t.Fatal(err)
		}
		// The CI centers on the sample mean; widen by the sample-vs-population
		// gap tolerance: just check coverage of the sample mean's neighborhood.
		if res.CI.Covers(Mean(values)) {
			covered++
		}
	}
	if covered < trials*8/10 {
		t.Errorf("sample-mean coverage %d/%d too low", covered, trials)
	}
}

func TestBLBMoEShrinksWithSampleSize(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := make([]float64, 100)
	large := make([]float64, 5000)
	for i := range small {
		small[i] = rng.Float64()
	}
	for i := range large {
		large[i] = rng.Float64()
	}
	rs, err := BLB(small, DefaultBLB(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rl, err := BLB(large, DefaultBLB(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if rl.CI.MoE >= rs.CI.MoE {
		t.Errorf("MoE did not shrink: %v (n=5000) vs %v (n=100)", rl.CI.MoE, rs.CI.MoE)
	}
}

func TestBLBValidation(t *testing.T) {
	cfg := DefaultBLB()
	cfg.Scale = 1.2
	if _, err := BLB([]float64{1, 2, 3}, cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Error("accepted scale ≥ 1")
	}
	if _, err := BLB(nil, DefaultBLB(), rand.New(rand.NewSource(1))); err == nil {
		t.Error("accepted empty values")
	}
	bad := DefaultBLB()
	bad.Resamples = 1
	if err := bad.Validate(); err == nil {
		t.Error("accepted 1 resample")
	}
}

func TestSampleWithoutReplacementDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := make([]float64, 100)
	for i := range values {
		values[i] = float64(i)
	}
	for _, k := range []int{1, 5, 30, 90, 100} {
		sc := blbScratch{sub: make([]float64, k), idx: make([]int32, len(values))}
		// Run twice per size, as successive subsamples of one BLB call do, so
		// the reuse of the index buffer is exercised.
		for round := 0; round < 2; round++ {
			sc.sampleWithoutReplacement(values, rng)
			seen := map[float64]bool{}
			for _, v := range sc.sub {
				if seen[v] {
					t.Fatalf("k=%d round=%d: duplicate value %v", k, round, v)
				}
				seen[v] = true
			}
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vals); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Error("degenerate inputs")
	}
}

func TestMeanCI(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	ci, err := MeanCI(vals, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// Σ(x−5)² = 32, so σ̂² = 32/7 and the margin is z·√(32/7/8).
	z, _ := ZAlphaHalf(0.95)
	if want := z * math.Sqrt(32.0/7/8); ci.Center != 5 || math.Abs(ci.MoE-want) > 1e-12 || ci.Confidence != 0.95 {
		t.Errorf("MeanCI = %+v, want centre 5, MoE %v", ci, want)
	}
	if ci, err := MeanCI([]float64{0.3}, 0.95); err != nil || ci.Center != 0.3 || ci.MoE != 0 {
		t.Errorf("one value: %+v, %v; want centre 0.3, MoE 0", ci, err)
	}
	if _, err := MeanCI(nil, 0.95); err == nil {
		t.Error("accepted empty values")
	}
	if _, err := MeanCI(vals, 1); err == nil {
		t.Error("accepted confidence 1")
	}
}

// TestBLBConvergesToMeanCI keeps checked the fact MeanCI rests on: for a
// mean, BLB's margin is a Monte Carlo estimate of √((b−1)/b)·z·σ̂/√n, with
// b = ⌈n^0.6⌉ its subsample size. One subsample's bootstrap variance has
// expectation (b−1)/b·σ̂²/n exactly (a without-replacement subsample's
// plug-in variance, over n), so the mean square of a one-subsample margin
// over many generator seeds converges to that value squared. The default
// averages the margins of its subsamples, which Jensen's inequality puts a
// little under it, by less as n grows.
func TestBLBConvergesToMeanCI(t *testing.T) {
	const seeds = 2000
	one := DefaultBLB()
	one.Subsamples = 1
	for _, n := range []int{6, 14, 34} {
		for set := int64(0); set < 3; set++ {
			rng := rand.New(rand.NewSource(int64(n)*10 + set))
			values := make([]float64, n)
			for i := range values {
				values[i] = rng.Float64()
			}
			ci, err := MeanCI(values, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			b := math.Ceil(math.Pow(float64(n), 0.6))
			want := math.Sqrt((b-1)/b) * ci.MoE
			var sq, sum float64
			for seed := int64(0); seed < seeds; seed++ {
				r1, err := BLB(values, one, rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				rd, err := BLB(values, DefaultBLB(), rand.New(rand.NewSource(seed)))
				if err != nil {
					t.Fatal(err)
				}
				sq += r1.CI.MoE * r1.CI.MoE
				sum += rd.CI.MoE
			}
			if ratio := sq / seeds / (want * want); math.Abs(ratio-1) > 0.04 {
				t.Errorf("n=%d set %d: one-subsample BLB mean square margin ÷ ((b−1)/b)·(z·σ̂/√n)² = %.4f, want 1 ± 0.04", n, set, ratio)
			}
			if ratio := sum / seeds / want; ratio < 0.9 || ratio > 1 {
				t.Errorf("n=%d set %d: mean BLB margin ÷ √((b−1)/b)·z·σ̂/√n = %.4f, want in [0.9, 1]", n, set, ratio)
			}
		}
	}
}

// TestMeanCICoverage compares how often each interval misses the true mean,
// on value sets drawn from N(0.4, 0.15²) at SEA's candidate sizes (6–34
// values), 2 000 sets per n: MeanCI's miss rate must not exceed BLB's on the
// same sets. Neither reaches the nominal 5% at n = 6 — z is too small for
// σ̂ from six values — and this test does not ask it to.
func TestMeanCICoverage(t *testing.T) {
	const sets, mu = 2000, 0.4
	for _, n := range []int{6, 10, 14, 22, 34} {
		draw := rand.New(rand.NewSource(int64(n)))
		blbRng := rand.New(rand.NewSource(int64(n) + 1000))
		values := make([]float64, n)
		var missMean, missBLB int
		for i := 0; i < sets; i++ {
			for j := range values {
				values[j] = mu + 0.15*draw.NormFloat64()
			}
			ci, err := MeanCI(values, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BLB(values, DefaultBLB(), blbRng)
			if err != nil {
				t.Fatal(err)
			}
			if !ci.Covers(mu) {
				missMean++
			}
			if !res.CI.Covers(mu) {
				missBLB++
			}
		}
		t.Logf("n=%2d: miss rate MeanCI %.3f, BLB %.3f (nominal 0.05, %d sets)",
			n, float64(missMean)/sets, float64(missBLB)/sets, sets)
		if missMean > missBLB {
			t.Errorf("n=%d: MeanCI misses the mean in %d of %d sets, BLB in %d", n, missMean, sets, missBLB)
		}
	}
}
