package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func toJSONMetrics(specs []metricSpec) []jsonMetric {
	out := make([]jsonMetric, len(specs))
	for i, s := range specs {
		out[i] = jsonMetric(s)
	}
	return out
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpecMatchesJSON: BENCHMARK.json names exactly the workloads and
// metrics this package reports, with the same units, directions and bounds.
func TestSpecMatchesJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), this package %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if want := toJSONMetrics(endToEnd); !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("end_to_end:\n json %v\n here %v", b.EndToEnd, want)
	}
	if want := toJSONMetrics(perLayer); !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("per_layer:\n json %v\n here %v", b.PerLayer, want)
	}
}

// TestSpecWithinTheContract holds the names, units and bounds to the limits
// the driver refuses a benchmark for.
func TestSpecWithinTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	setup := false
	for _, s := range endToEnd {
		check(s.Name)
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		setup = setup || s == metricSpec{"setup_s", "s", "lower", s.Bound}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q is outside the contract", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better is %q", s.Name, s.Better)
		}
	}
	for _, s := range perLayer {
		check(s.Name)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
}
