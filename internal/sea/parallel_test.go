package sea

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
)

// stripTimes zeroes the wall-clock fields of a Result so two runs can be
// compared for semantic identity (times legitimately differ run to run).
func stripTimes(r *Result) *Result {
	c := *r
	c.Steps = StepTimes{}
	c.Rounds = append([]Round(nil), r.Rounds...)
	for i := range c.Rounds {
		c.Rounds[i].Time = 0
	}
	return &c
}

// TestResultIndependentOfGOMAXPROCS is the one scheduling contract a search
// has: the same request — graph, query node, options, seed — returns a
// byte-identical Result (times stripped) whatever GOMAXPROCS is. A search
// runs on the goroutine that was handed it, and nothing it calls starts
// another (TestNoFanOutInsideARequest at the repository root).
func TestResultIndependentOfGOMAXPROCS(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "procs", Nodes: 4500, MinCommunity: 12, MaxCommunity: 30,
		IntraDegree: 8, InterDegree: 0.6,
		TokensPerNode: 4, PoolSize: 5, Vocab: 120, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := d.QueryNodes(1, 5, 4)[0]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	for _, model := range []Model{KCore, KTruss} {
		for _, seed := range []int64{1, 7, 23} {
			opts := DefaultOptions()
			opts.K = 5
			opts.Lambda = paperLambda
			opts.MaxRounds = 3
			opts.Model = model
			opts.Seed = seed

			runtime.GOMAXPROCS(1)
			one, oneErr := search(d.Graph, m, q, opts)
			runtime.GOMAXPROCS(4)
			four, fourErr := search(d.Graph, m, q, opts)
			if (oneErr == nil) != (fourErr == nil) {
				t.Fatalf("%v seed %d: error mismatch: %v vs %v", model, seed, oneErr, fourErr)
			}
			if oneErr != nil {
				t.Fatalf("%v seed %d: %v", model, seed, oneErr)
			}
			if !reflect.DeepEqual(stripTimes(one), stripTimes(four)) {
				t.Fatalf("%v seed %d:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v",
					model, seed, stripTimes(one), stripTimes(four))
			}
		}
	}
}

// TestSearchDeterministicAcrossRepeats guards the fixed-seed reproducibility
// the paper-reproduction contract depends on: same inputs, same Result.
func TestSearchDeterministicAcrossRepeats(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "det", Nodes: 400, MinCommunity: 10, MaxCommunity: 24,
		IntraDegree: 7, InterDegree: 0.5,
		TokensPerNode: 3, PoolSize: 5, Vocab: 90, NoiseProb: 0.1,
		NumDim: 1, NumSigma: 0.05, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := d.QueryNodes(1, 4, 8)[0]
	opts := DefaultOptions()
	opts.K = 4
	opts.Lambda = paperLambda
	opts.Seed = 17

	first, err := search(d.Graph, m, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := search(d.Graph, m, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimes(first), stripTimes(again)) {
			t.Fatalf("repeat %d diverged:\nfirst: %+v\nagain: %+v", i, stripTimes(first), stripTimes(again))
		}
	}
}
