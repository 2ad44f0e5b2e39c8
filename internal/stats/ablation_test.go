package stats

import (
	"math"
	"math/rand"
	"testing"
)

// bootstrap is the control of the BLB ablation: the full bootstrap of Eq. 11,
// r resamples of len(values) points with replacement. It returns the mean and
// the standard deviation of the resample means (σ_δ*).
func bootstrap(values []float64, r int, rng *rand.Rand) (mean, sigma float64) {
	if len(values) == 0 || r <= 1 {
		return 0, 0
	}
	return bootstrapNInto(values, len(values), r, rng, make([]float64, r))
}

func TestBootstrapRecoversSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 400
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.NormFloat64()*2 + 10
	}
	mean, sigma := bootstrap(values, 200, rng)
	if math.Abs(mean-10) > 0.5 {
		t.Errorf("bootstrap mean = %v, want ≈10", mean)
	}
	// σ of the mean ≈ 2/√400 = 0.1.
	if sigma < 0.05 || sigma > 0.2 {
		t.Errorf("bootstrap sigma = %v, want ≈0.1", sigma)
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if m, s := bootstrap(nil, 100, rng); m != 0 || s != 0 {
		t.Errorf("empty input: %v,%v", m, s)
	}
	if _, s := bootstrap([]float64{5, 5, 5}, 50, rng); s != 0 {
		t.Errorf("constant input: sigma = %v, want 0", s)
	}
}

// BenchmarkAblationBLBVsBootstrap compares BLB against a full bootstrap for
// the MoE computation.
func BenchmarkAblationBLBVsBootstrap(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 4000)
	for i := range values {
		values[i] = rng.Float64()
	}
	b.Run("blb", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			if _, err := BLB(values, DefaultBLB(), rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bootstrap", func(b *testing.B) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < b.N; i++ {
			bootstrap(values, 50, rng)
		}
	})
}
