package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// bootstrapNInto draws r resamples of resampleN points (with replacement)
// from values, writes their means into the caller's buffer (len ≥ r) and
// returns the mean and standard deviation of the resample means. BLB passes
// the ORIGINAL sample size as resampleN so each little subsample estimates
// the full-size estimator's spread (Kleiner et al., §3).
func bootstrapNInto(values []float64, resampleN, r int, rng *rand.Rand, means []float64) (mean, sigma float64) {
	n := len(values)
	if n == 0 || r <= 1 || resampleN == 0 {
		return 0, 0
	}
	means = means[:r]
	for i := 0; i < r; i++ {
		sum := 0.0
		for j := 0; j < resampleN; j++ {
			sum += values[rng.Intn(n)]
		}
		means[i] = sum / float64(resampleN)
	}
	for _, m := range means {
		mean += m
	}
	mean /= float64(r)
	var ss float64
	for _, m := range means {
		d := m - mean
		ss += d * d
	}
	sigma = math.Sqrt(ss / float64(r-1))
	return mean, sigma
}

// BLBConfig configures a Bag of Little Bootstraps estimation.
type BLBConfig struct {
	Subsamples int     // s: number of little subsamples
	Scale      float64 // m ∈ [0.5,1): subsample size = n^m
	Resamples  int     // r: bootstrap resamples per subsample
	Confidence float64 // 1−α
}

// DefaultBLB mirrors the paper's defaults: s=10 subsamples of size n^0.6,
// r=50 resamples, 95% confidence.
func DefaultBLB() BLBConfig {
	return BLBConfig{Subsamples: 10, Scale: 0.6, Resamples: 50, Confidence: 0.95}
}

// Validate reports configuration errors.
func (c BLBConfig) Validate() error {
	if c.Subsamples < 1 {
		return fmt.Errorf("stats: BLB needs at least 1 subsample, got %d", c.Subsamples)
	}
	if c.Scale < 0.5 || c.Scale >= 1 {
		return fmt.Errorf("stats: BLB scale %v outside [0.5,1)", c.Scale)
	}
	if c.Resamples < 2 {
		return fmt.Errorf("stats: BLB needs at least 2 resamples, got %d", c.Resamples)
	}
	if c.Confidence <= 0 || c.Confidence >= 1 {
		return fmt.Errorf("stats: confidence %v outside (0,1)", c.Confidence)
	}
	return nil
}

// BLBResult is the outcome of a Bag of Little Bootstraps run.
type BLBResult struct {
	CI       CI  // point estimate and averaged MoE
	Total    int // |S_blb|: total points drawn across subsamples
	SubSize  int // size of each subsample
	Resample int // resamples per subsample
}

// BLB runs the Bag of Little Bootstraps of §V-B over values: draw s
// subsamples of size n^m, bootstrap each to get an MoE ε_i = z_{α/2}·σ_i,
// and average. The returned CI centers on the mean of values (δ* is computed
// over the full candidate community, the bootstrap only sizes the MoE).
//
// The subsamples run one after another on the caller's goroutine, and every
// draw — subsample and resamples alike — comes from rng, in order: a
// candidate holds tens of values, far too little work to hand to other
// goroutines, and the engine already runs whole searches side by side.
func BLB(values []float64, cfg BLBConfig, rng *rand.Rand) (BLBResult, error) {
	if err := cfg.Validate(); err != nil {
		return BLBResult{}, err
	}
	n := len(values)
	if n == 0 {
		return BLBResult{}, fmt.Errorf("stats: BLB over empty value set")
	}
	z, err := ZAlphaHalf(cfg.Confidence)
	if err != nil {
		return BLBResult{}, err
	}
	subSize := int(math.Ceil(math.Pow(float64(n), cfg.Scale)))
	if subSize < 2 {
		subSize = 2
	}
	if subSize > n {
		subSize = n
	}
	s := cfg.Subsamples
	// Ensure s·n^m ≤ n as in [50]; shrink s when the sample is tiny but keep
	// at least one subsample.
	if s*subSize > n && n/subSize >= 1 {
		s = n / subSize
	}
	if s < 1 {
		s = 1
	}

	sc := blbScratch{
		sub:   make([]float64, subSize),
		means: make([]float64, cfg.Resamples),
		idx:   make([]int32, n),
	}
	sumMoE := 0.0
	for i := 0; i < s; i++ {
		sc.sampleWithoutReplacement(values, rng)
		// Resample at the ORIGINAL size n: each little subsample estimates
		// the spread of the full-sample mean, which is what makes BLB an
		// estimator-quality assessment rather than a subsample one.
		_, sigma := bootstrapNInto(sc.sub, n, cfg.Resamples, rng, sc.means)
		sumMoE += z * sigma
	}
	mean := 0.0
	for _, v := range values {
		mean += v
	}
	mean /= float64(n)
	return BLBResult{
		CI:       CI{Center: mean, MoE: sumMoE / float64(s), Confidence: cfg.Confidence},
		Total:    s * subSize,
		SubSize:  subSize,
		Resample: cfg.Resamples,
	}, nil
}

// blbScratch is the state of one BLB call, reused by each of its subsamples:
// the subsample buffer (len = subsample size), the bootstrap resample-mean
// buffer (len = resamples) and the without-replacement sampler's index
// permutation (len = number of values).
type blbScratch struct {
	sub   []float64
	means []float64
	idx   []int32
}

// sampleWithoutReplacement fills sc.sub with distinct values drawn uniformly
// from values: the first len(sc.sub) steps of a Fisher–Yates shuffle of
// sc.idx.
func (sc *blbScratch) sampleWithoutReplacement(values []float64, rng *rand.Rand) {
	n, idx := len(values), sc.idx
	for i := range idx {
		idx[i] = int32(i)
	}
	for j := range sc.sub {
		t := j + rng.Intn(n-j)
		idx[j], idx[t] = idx[t], idx[j]
		sc.sub[j] = values[idx[j]]
	}
}

// Mean returns the arithmetic mean of values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
