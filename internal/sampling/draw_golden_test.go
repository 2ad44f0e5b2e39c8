package sampling

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/draws.golden from the current output")

// drawInput is one population WeightedSampleInto draws from in
// TestDrawGolden.
type drawInput struct {
	name       string
	population []graph.NodeID
	weights    []float64
	size       int
	q          graph.NodeID
}

// coldDrawInput is BenchmarkSubstrateWeightedSample/cold's draw: S3's pool
// in a twitter Gq of Theorem 10's size at k = 6 (Gq without q), Eq. 5's
// weights, a sample of 20% of the pool.
func coldDrawInput(t *testing.T) drawInput {
	d, err := dataset.Homogeneous("twitter", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	size, err := stats.MinGqSizeCore(0.05, 0.05, 6, d.Graph.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	w := testWS(t)
	q := d.Eligible(6)[0]
	f := m.View(q, &w.Dist)
	pool := BuildGqView(nil, d.Graph, q, &f, size, w)[1:]
	return drawInput{"twitter-cold-k6", pool, ProbabilitiesView(nil, pool, &f), len(pool) / 5, -1}
}

// tieDrawInput is a synthetic population of 4 000 shuffled IDs with near
// uniform weights (three levels around 1/4 000), 5% of them zero, and q
// inside: about five in six positive keys underflow to 0, so a 40% sample
// takes most of its nodes from one block of equal keys.
func tieDrawInput() drawInput {
	const n = 4000
	rng := rand.New(rand.NewSource(11))
	in := drawInput{name: "tie-heavy", size: 2 * n / 5, q: 17}
	for i, v := range rng.Perm(n) {
		in.population = append(in.population, graph.NodeID(v))
		wt := float64(1+i%3) / (2 * n)
		if rng.Intn(20) == 0 {
			wt = 0
		}
		in.weights = append(in.weights, wt)
	}
	return in
}

// positiveKeys is how many of in's A-ES keys at seed are above 0: q's, and
// every positive weight's U^(1/w) that does not underflow. Every other node
// draws one U, as WeightedSampleInto does.
func positiveKeys(in drawInput, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	for i, v := range in.population {
		if v == in.q {
			n++
			continue
		}
		if u := rng.Float64(); in.weights[i] > 0 && math.Pow(u, 1/in.weights[i]) > 0 {
			n++
		}
	}
	return n
}

// TestDrawGolden pins WeightedSampleInto's output, node for node and in
// order, on two inputs whose samples reach into a block of keys that
// underflowed to 0. Which nodes of that block are drawn, and in what order,
// is the order the sort leaves equal keys in. Every answer at λ < 1 depends
// on it, so a toolchain that orders ties otherwise fails here by name. A
// deliberate change of the draw re-records the file:
//
//	go test ./internal/sampling -run TestDrawGolden -update-golden
func TestDrawGolden(t *testing.T) {
	var got bytes.Buffer
	w := testWS(t)
	for _, in := range []drawInput{coldDrawInput(t), tieDrawInput()} {
		for _, seed := range []int64{1, 2, 3} {
			if pos := positiveKeys(in, seed); pos >= in.size {
				t.Fatalf("%s seed %d: %d positive keys for a sample of %d, no tie reaches the sample", in.name, seed, pos, in.size)
			}
			sample := WeightedSampleInto(nil, in.population, in.weights, in.size, in.q, rand.New(rand.NewSource(seed)), w)
			fmt.Fprintf(&got, "%s seed %d of %d:", in.name, seed, len(in.population))
			for _, v := range sample {
				fmt.Fprintf(&got, " %d", v)
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "draws.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("%d draws, %d recorded", len(gl)-1, len(wl)-1)
	}
	for i := range gl {
		if bytes.Equal(gl[i], wl[i]) {
			continue
		}
		label, rest, _ := bytes.Cut(wl[i], []byte(":"))
		_, grest, _ := bytes.Cut(gl[i], []byte(":"))
		g, r := bytes.Fields(grest), bytes.Fields(rest)
		at := 0
		for at < len(g) && at < len(r) && bytes.Equal(g[at], r[at]) {
			at++
		}
		t.Errorf("%s: the sample differs from entry %d on: got %s, recorded %s", label, at+1,
			bytes.Join(g[at:min(at+5, len(g))], []byte(" ")), bytes.Join(r[at:min(at+5, len(r))], []byte(" ")))
	}
}
