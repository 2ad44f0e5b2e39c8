// Package stats provides the statistical machinery behind the paper's
// accuracy guarantee: standard-normal quantiles for confidence intervals,
// the Hoeffding-inequality population bounds of §V-A (Theorems 9–10), the
// closed-form interval of a mean that SEA's estimation step uses (MeanCI),
// the paper's Bag of Little Bootstraps (BLB), kept as the reference MeanCI
// is checked against, and the Theorem-11 stopping rule together with the
// error-based incremental sample sizing of §V-C (Eq. 12).
package stats

import (
	"fmt"
	"math"
)

// NormalQuantile returns the p-quantile of the standard normal distribution
// (the inverse CDF), using Acklam's rational approximation; absolute error is
// below 1.15e-9 over (0,1).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// ZAlphaHalf returns z_{α/2}, the normal critical value with right-tail
// probability α/2, for a confidence level 1−α ∈ (0,1).
func ZAlphaHalf(confidence float64) (float64, error) {
	if confidence <= 0 || confidence >= 1 {
		return 0, fmt.Errorf("stats: confidence level %v outside (0,1)", confidence)
	}
	alpha := 1 - confidence
	return NormalQuantile(1 - alpha/2), nil
}

// CI is a confidence interval δ* ± ε at a given confidence level.
type CI struct {
	Center     float64 // point estimate δ*
	MoE        float64 // margin of error ε (half-width)
	Confidence float64 // 1−α
}

// Lo returns the lower bound of the interval.
func (ci CI) Lo() float64 { return ci.Center - ci.MoE }

// Hi returns the upper bound of the interval.
func (ci CI) Hi() float64 { return ci.Center + ci.MoE }

// Covers reports whether x lies in the interval.
func (ci CI) Covers(x float64) bool { return x >= ci.Lo() && x <= ci.Hi() }

// String formats the interval like the paper: "0.123 ± 4e-3 (95%)".
func (ci CI) String() string {
	return fmt.Sprintf("%.4g ± %.2g (%.0f%%)", ci.Center, ci.MoE, ci.Confidence*100)
}

// SatisfiesErrorBound implements the Theorem-11 stopping rule: the relative
// error |δ*−δ|/δ is bounded by e with probability 1−α when the MoE satisfies
// ε ≤ δ*·e/(1+e).
func (ci CI) SatisfiesErrorBound(e float64) bool {
	return ci.MoE <= MoETarget(ci.Center, e)
}

// MeanCI is the interval of the mean of values at the given confidence, in
// closed form: centre x̄ and margin z_{α/2}·σ̂/√n, where σ̂ is the sample
// standard deviation (divisor n−1). The centre is Mean(values), summed in
// order and divided once, so it is the same float as a δ* summed over the
// same values; σ̂ comes from a second pass over the deviations from it.
//
// It is what BLB approximates by Monte Carlo when the estimator is a mean: a
// bootstrap resample of size n from a subsample of size b has a mean whose
// variance is the subsample's plug-in variance over n, so BLB's margin is a
// noisy copy of √((b−1)/b)·z·σ̂/√n (TestBLBConvergesToMeanCI). One value has
// no spread to estimate, and its margin is 0.
func MeanCI(values []float64, confidence float64) (CI, error) {
	z, err := ZAlphaHalf(confidence)
	if err != nil {
		return CI{}, err
	}
	if len(values) == 0 {
		return CI{}, fmt.Errorf("stats: interval of an empty value set")
	}
	ci := CI{Center: Mean(values), Confidence: confidence}
	var ss float64
	for _, v := range values {
		d := v - ci.Center
		ss += d * d
	}
	if n := float64(len(values)); n > 1 {
		ci.MoE = z * math.Sqrt(ss/(n-1)/n)
	}
	return ci, nil
}

// MoETarget returns the Theorem-11 threshold δ*·e/(1+e).
func MoETarget(center, e float64) float64 {
	return center * e / (1 + e)
}
