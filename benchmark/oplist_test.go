package main

import (
	"testing"

	"repro/internal/dataset"
)

// datasets generates each dataset once per test binary.
var datasets = map[string]*dataset.Generated{}

func datasetFor(t testing.TB, name string) *dataset.Generated {
	t.Helper()
	if ds, ok := datasets[name]; ok {
		return ds
	}
	ds, err := dataset.Homogeneous(name, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	datasets[name] = ds
	return ds
}

// TestOpListFromSeed: the same seed gives the same inputs, another seed
// gives others, for every workload.
func TestOpListFromSeed(t *testing.T) {
	for _, w := range workloads {
		ds := datasetFor(t, w.dataset)
		a := w.gen(w, ds, 1, smokeSize).hash()
		if b := w.gen(w, ds, 1, smokeSize).hash(); a != b {
			t.Errorf("%s: seed 1 hashed to %x, then to %x", w.name, a, b)
		}
		if c := w.gen(w, ds, 2, smokeSize).hash(); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", w.name)
		}
	}
}

// TestColdRequestsAreDistinct: no two requests of a cold list share a cache
// key, and the list is longer than the result cache.
func TestColdRequestsAreDistinct(t *testing.T) {
	for _, name := range []string{"cold-core", "cold-truss"} {
		w := workloadByName(name)
		l := w.gen(w, datasetFor(t, w.dataset), 1, fullSize)
		seen := map[string]bool{}
		for _, o := range l.ops {
			if seen[string(o.body)] {
				t.Fatalf("%s: body %s generated twice", name, o.body)
			}
			seen[string(o.body)] = true
		}
		if l.cyclic || len(l.seq) <= 4096 {
			t.Errorf("%s: cyclic=%v with %d ops; a second pass would hit the 4096-entry result cache", name, l.cyclic, len(l.seq))
		}
	}
}

// TestHotSetFitsTheCaches: every entry the hot workloads keep warm fits the
// program's result cache with room to spare, and does not depend on the seed.
func TestHotSetFitsTheCaches(t *testing.T) {
	for _, name := range []string{"hot-read", "live-mixed"} {
		w := workloadByName(name)
		ds := datasetFor(t, w.dataset)
		a, b := w.gen(w, ds, 1, fullSize), w.gen(w, ds, 2, fullSize)
		entries := 0
		for i, o := range a.warm {
			entries += len(o.reqs)
			if string(o.body) != string(b.warm[i].body) {
				t.Fatalf("%s: warm op %d differs between seeds", name, i)
			}
		}
		if entries > 4096/2 {
			t.Errorf("%s: the warm set touches %d requests, more than half the result cache", name, entries)
		}
	}
}
