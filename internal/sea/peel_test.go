package sea

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attr"
	"repro/internal/cohesive"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
)

// estimateByScan is S2's greedy peel with the most dissimilar member found
// by a scan at every step: list the alive members and peel the first with
// the largest f(·,q), q never. It is the reference that estimate's sorted
// peel order is held to (TestEstimateMatchesScanPeel): both must peel the
// same node at every step, ties included.
func (s *seaRun) estimateByScan(maint cohesive.Maintainer) (done bool, best stats.CI, n int) {
	var members, bestSet []graph.NodeID
	var values []float64
	haveBest := false
	minSize := s.minCommunitySize()
	nextEstimate := maint.Size()
	for {
		members = maint.Members(members[:0])
		if len(members) < minSize {
			break
		}
		withinSize := s.opts.SizeHi == 0 || len(members) <= s.opts.SizeHi
		atFloor := len(members) == minSize
		if withinSize && (len(members) <= nextEstimate || atFloor) {
			nextEstimate = len(members) * 49 / 50
			if nextEstimate >= len(members) {
				nextEstimate = len(members) - 1
			}
			values = values[:0]
			for _, v := range members {
				if v != s.q {
					values = append(values, s.f.At(v))
				}
			}
			ci, err := stats.MeanCI(values, s.opts.Confidence)
			if err == nil && (s.opts.NoRefine || !haveBest || ci.Center < best.Center) {
				best, haveBest, n = ci, true, len(values)
				bestSet = append(bestSet[:0], members...)
				done = n >= 2 && ci.SatisfiesErrorBound(s.opts.ErrorBound)
				if done && s.opts.NoRefine {
					break
				}
			}
		}
		var worst graph.NodeID = -1
		worstD := -1.0
		for _, v := range members {
			if v != s.q && s.f.At(v) > worstD {
				worst, worstD = v, s.f.At(v)
			}
		}
		if worst < 0 {
			break
		}
		if _, qAlive := maint.RemoveCascade(worst); !qAlive || maint.Size() < minSize {
			maint.Restore()
			break
		}
	}
	if haveBest {
		s.res.Community = slices.Clone(bestSet)
		s.res.Delta = s.f.Delta(s.res.Community, s.q)
	}
	return done, best, n
}

// peelShape is a graph TestEstimateMatchesScanPeel peels.
type peelShape struct {
	name string
	g    *graph.Graph
}

// peelShapes returns planted communities, a giant core with a tree fringe,
// and crossing cycles.
func peelShapes(t *testing.T, rng *rand.Rand) []peelShape {
	t.Helper()
	planted, err := dataset.Generate(dataset.Spec{
		Name: "planted", Nodes: 300, MinCommunity: 8, MaxCommunity: 30,
		IntraDegree: 7, InterDegree: 0.8,
		TokensPerNode: 2, PoolSize: 3, Vocab: 40, NoiseProb: 0.1,
		NumDim: 1, NumSigma: 0.1, Seed: rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// A dense random core of 150 nodes and a random tree of 150 more, each
	// tree node hanging off an earlier node by one edge.
	const coreN, fringeN = 150, 150
	b := graph.NewBuilder(coreN+fringeN, 0)
	for v := 0; v < coreN; v++ {
		for range 4 {
			b.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(coreN)))
		}
	}
	for v := coreN; v < coreN+fringeN; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(v)))
	}
	fringe := b.MustBuild()

	// Six cycles, each through a random ordering of 40 of 120 nodes.
	const cycN = 120
	b = graph.NewBuilder(cycN, 0)
	for range 6 {
		c := rng.Perm(cycN)[:40]
		for i, v := range c {
			b.AddEdge(graph.NodeID(v), graph.NodeID(c[(i+1)%len(c)]))
		}
	}
	cycles := b.MustBuild()

	return []peelShape{{"planted", planted.Graph}, {"fringe", fringe}, {"cycles", cycles}}
}

// TestEstimateMatchesScanPeel holds S2's peel, which walks an order sorted
// once, to estimateByScan, which scans for the most dissimilar member at
// every step. f is quantized to at most four levels so that ties are
// common: the sorted order must break them in universe order, as the scan
// does. Both models, random q and k, size bounds, NoRefine, and structures
// extracted from all of g or from a random half of it.
func TestEstimateMatchesScanPeel(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	checked := 0
	for round := range 4 {
		for _, shape := range peelShapes(t, rng) {
			g := shape.g
			n := g.NumNodes()
			for trial := range 40 {
				opts := DefaultOptions()
				opts.Model = Model(rng.Intn(2))
				opts.K = 1 + rng.Intn(4)
				if opts.Model == KTruss {
					opts.K++
				}
				opts.NoRefine = rng.Intn(3) == 0
				opts.ErrorBound = []float64{0.02, 0.2, 0.6}[rng.Intn(3)]
				if rng.Intn(3) == 0 {
					opts.SizeLo = 1 + rng.Intn(10)
					opts.SizeHi = opts.SizeLo + rng.Intn(30)
				}
				levels := 1 + rng.Intn(4)
				dist := make([]float64, n)
				for v := range dist {
					dist[v] = float64(rng.Intn(levels)) / 4
				}
				q := graph.NodeID(rng.Intn(n))
				dist[q] = 0
				var in *graph.NodeSet
				if rng.Intn(2) == 0 {
					in = new(graph.NodeSet)
					in.Reset(n)
					for v := range n {
						if graph.NodeID(v) == q || rng.Intn(2) == 0 {
							in.Add(graph.NodeID(v))
						}
					}
				}

				s := newRun(context.Background(), g, q, opts)
				s.f = attr.VectorView(dist)
				maint, _ := Maximal(context.Background(), g, q, opts.K, opts.Model, in, math.MaxInt, s.w)
				if maint == nil {
					s.w.Release()
					continue
				}
				done, ci, cnt := s.estimate(maint)
				got := s.res
				s.res = Result{}
				maint, _ = Maximal(context.Background(), g, q, opts.K, opts.Model, in, math.MaxInt, s.w)
				wantDone, wantCI, wantCnt := s.estimateByScan(maint)
				want := s.res
				s.w.Release()

				where := fmt.Sprintf("round %d %s trial %d (q %d, %v k=%d, size [%d,%d], NoRefine %v, %d levels)",
					round, shape.name, trial, q, opts.Model, opts.K, opts.SizeLo, opts.SizeHi, opts.NoRefine, levels)
				if !slices.Equal(got.Community, want.Community) || got.Delta != want.Delta {
					t.Fatalf("%s: community %v δ %v, scan peel %v δ %v", where, got.Community, got.Delta, want.Community, want.Delta)
				}
				if ci != wantCI || done != wantDone || cnt != wantCnt {
					t.Fatalf("%s: (CI %+v, done %v, n %d), scan peel (%+v, %v, %d)", where, ci, done, cnt, wantCI, wantDone, wantCnt)
				}
				checked++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("only %d of 480 trials had a structure around q", checked)
	}
}
