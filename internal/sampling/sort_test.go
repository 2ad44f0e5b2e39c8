package sampling

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ws"
)

// byKeyDesc is the comparator WeightedSampleInto's order is defined by:
// descending D, equal keys in whatever order the sort leaves them.
func byKeyDesc(a, b ws.NodeDist) int {
	switch {
	case a.D > b.D:
		return -1
	case a.D < b.D:
		return 1
	default:
		return 0
	}
}

// sameKeys reports whether a and b hold the same entries in the same order,
// keys compared bit for bit.
func sameKeys(a, b []ws.NodeDist) bool {
	return slices.EqualFunc(a, b, func(x, y ws.NodeDist) bool {
		return x.V == y.V && math.Float64bits(x.D) == math.Float64bits(y.D)
	})
}

// keyPalette holds the keys a draw can produce and the edges of the float
// line: ±Inf (q's forced key), zeros (underflowed keys), denormals, negative
// keys (zero-weight nodes), repeated values.
var keyPalette = []float64{
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 1e-310, 1e-300,
	0.25, 0.5, 0.5, 0.75, 1, math.MaxFloat64, -0.5, -math.SmallestNonzeroFloat64,
}

// keyShapes are the inputs of TestSortKeysPrefix. Entry i has V = i, so
// entries with equal keys are told apart and their order is checked too.
var keyShapes = map[string]func(rng *rand.Rand, n int) []float64{
	"random": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.Float64()
		}
		return d
	},
	"tie-heavy": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(rng.Intn(4)) / 4
		}
		return d
	},
	"all equal": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = 0.5
		}
		return d
	},
	"sorted": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(n - i)
		}
		return d
	},
	"reversed": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = float64(i)
		}
		return d
	},
	"inf, zero and denormal": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = keyPalette[rng.Intn(len(keyPalette))]
		}
		return d
	},
	"mostly underflowed": func(rng *rand.Rand, n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			if rng.Intn(10) == 0 {
				d[i] = rng.Float64()
			}
		}
		if n > 0 {
			d[rng.Intn(n)] = math.Inf(1)
		}
		return d
	},
}

func nodeKeys(d []float64) []ws.NodeDist {
	keys := make([]ws.NodeDist, len(d))
	for i, x := range d {
		keys[i] = ws.NodeDist{V: graph.NodeID(i), D: x}
	}
	return keys
}

// checkPrefix fails t unless sortKeys(keys, len) equals slices.SortFunc with
// byKeyDesc, and sortKeys(keys, k)'s first k entries equal that full sort's
// for every k in ks.
func checkPrefix(t *testing.T, keys []ws.NodeDist, ks func(yield func(int) bool)) {
	t.Helper()
	want := slices.Clone(keys)
	slices.SortFunc(want, byKeyDesc)
	full := slices.Clone(keys)
	sortKeys(full, len(full))
	if !sameKeys(full, want) {
		t.Fatalf("n=%d: the unpruned sort differs from slices.SortFunc", len(keys))
	}
	got := make([]ws.NodeDist, len(keys))
	for k := range ks {
		copy(got, keys)
		sortKeys(got, k)
		if !sameKeys(got[:k], full[:k]) {
			t.Fatalf("n=%d k=%d: the pruned sort's prefix differs from the full sort's", len(keys), k)
		}
	}
}

// TestSortKeysPrefix: sortKeys with no pruning is slices.SortFunc entry for
// entry, ties included, and pruned to any prefix k gives the same k first
// entries, for every k of every n of every shape.
func TestSortKeysPrefix(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 7, 12, 13, 14, 49, 50, 51, 100, 257, 1000, 5000}
	for name, shape := range keyShapes {
		for _, n := range sizes {
			keys := nodeKeys(shape(rand.New(rand.NewSource(int64(n))), n))
			step := 1
			if testing.Short() && n > 1000 {
				step = 37
			}
			checkPrefix(t, keys, func(yield func(int) bool) {
				for k := 0; k <= n; k += step {
					if !yield(k) {
						return
					}
				}
			})
			if t.Failed() {
				t.Fatalf("shape %q", name)
			}
		}
	}
}

// FuzzSamplePrefix: for any keys and any k the pruned sort's first k entries
// are the full sort's, and the full sort is slices.SortFunc. Each byte is a
// key: with its top bit set an entry of keyPalette, otherwise one of 128
// evenly spaced values in [0,1], so inputs are tie-heavy.
func FuzzSamplePrefix(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint16(7))
	ascending, descending := make([]byte, 128), make([]byte, 128)
	for i := range ascending {
		ascending[i], descending[i] = byte(i), byte(127-i)
	}
	f.Add(ascending, uint16(20))
	f.Add(descending, uint16(20))
	palette := make([]byte, 300)
	for i := range palette {
		palette[i] = 0x80 | byte(i*7)
	}
	f.Add(palette, uint16(60))
	ties := make([]byte, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range ties {
		ties[i] = byte(rng.Intn(3))
	}
	f.Add(ties, uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		d := make([]float64, len(data))
		for i, b := range data {
			if b&0x80 != 0 {
				d[i] = keyPalette[int(b&0x7f)%len(keyPalette)]
			} else {
				d[i] = float64(b) / 127
			}
		}
		checkPrefix(t, nodeKeys(d), func(yield func(int) bool) {
			yield(int(k) % (len(d) + 1))
		})
	})
}
