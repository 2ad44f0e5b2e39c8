package stats

import (
	"fmt"
	"math"
)

// MinPossibleWorlds returns the minimum number of possible worlds t required
// by Theorem 9 so that all m ground-truth nodes are contained in Gq with
// probability at least 1−β: t ≥ (2/ϵ²)·ln(m(n−m)/β).
func MinPossibleWorlds(eps, beta float64, m, n int) (int, error) {
	if eps <= 0 {
		return 0, fmt.Errorf("stats: eps must be positive, got %v", eps)
	}
	if beta <= 0 || beta >= 1 {
		return 0, fmt.Errorf("stats: beta %v outside (0,1)", beta)
	}
	if m <= 0 || n <= m {
		return 0, fmt.Errorf("stats: need 0 < m < n, got m=%d n=%d", m, n)
	}
	t := 2 / (eps * eps) * math.Log(float64(m)*float64(n-m)/beta)
	if t < 1 {
		t = 1
	}
	return int(math.Ceil(t)), nil
}

// MinGqSizeCore returns the Theorem-10 minimum size of the neighborhood
// population Gq for the k-core model: (2/ϵ²)·ln((k+1)(n−k−1)/β) + 1, where a
// k-core has at least k+1 nodes. The result is clamped to n.
func MinGqSizeCore(eps, beta float64, k, n int) (int, error) {
	return minGqSize(eps, beta, k+1, n)
}

// MinGqSizeTruss is the k-truss variant of Theorem 10 (§VI-C): a k-truss has
// at least k nodes, so m = k.
func MinGqSizeTruss(eps, beta float64, k, n int) (int, error) {
	return minGqSize(eps, beta, k, n)
}

// MinGqSizeSizeBounded is the size-bounded variant (§VI-B): the community has
// at least l nodes, so m = l.
func MinGqSizeSizeBounded(eps, beta float64, l, n int) (int, error) {
	return minGqSize(eps, beta, l, n)
}

func minGqSize(eps, beta float64, m, n int) (int, error) {
	if m >= n {
		// The whole graph is needed; fall back to n.
		return n, nil
	}
	t, err := MinPossibleWorlds(eps, beta, m, n)
	if err != nil {
		return 0, err
	}
	size := t + 1
	if size > n {
		size = n
	}
	return size, nil
}

// IncrementalSampleSize implements Eq. 12 for MeanCI's interval: given the
// current MoE ε of a mean over n values and its Theorem-11 target, it returns
// |ΔS| = n·[(ε/target)² − 1], the fewest further values that bring
// ε·√(n/(n+ΔS)) down to the target — the paper's |S_blb|·[(ε/target)^(2m) − 1]
// with the 1/√n scaling of a closed-form margin in place of BLB's n^m
// subsamples. It is in candidate units, at least 1 when ε exceeds the target,
// 0 when it does not, and capped at 2³⁰.
func IncrementalSampleSize(moe, target float64, n int) int {
	if moe <= target || target <= 0 || n <= 0 {
		return 0
	}
	ratio := moe / target
	delta := float64(n) * (ratio*ratio - 1)
	if delta < 1 {
		return 1
	}
	if delta > 1e9 {
		return 1 << 30
	}
	return int(math.Ceil(delta))
}
