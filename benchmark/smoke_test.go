package main

import (
	"io"
	"testing"
)

// TestSmoke runs all four workloads at self-test size, untraced and traced,
// and holds each result to the contract: the checks pass, no op fails, and
// the metrics reported are exactly the ones BENCHMARK.json names for the
// mode — every end-to-end one non-zero, and every per-layer one non-zero on
// at least one workload, so that BENCHMARK.json lists no metric the harness
// never fills in.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// Metrics that may honestly read 0: counters of things the workloads are
	// built to avoid or that need a lucky interleaving, and differences.
	filled := map[string]bool{
		"catalog.no_community_frac": true, "engine.index_reject_frac": true, "engine.coalesced_frac": true,
		"engine.dist_hit_frac": true, "sea.satisfied_frac": true,
		"harness.trace_overhead_frac": true,
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{w: w, seed: 1, seconds: 1, trace: trace, size: smokeSize, outDir: t.TempDir()}
			res, err := runWorkload(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d specified", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v (present: %v)", w.name, trace, s.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, s.Name, m.Value)
				}
				filled[s.Name] = filled[s.Name] || m.Value != 0
			}
		}
	}
	for _, s := range perLayer {
		if !filled[s.Name] {
			t.Errorf("%s is 0 on every workload", s.Name)
		}
	}
}
