package catalog

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
)

// TestMetricsExpositionStrict runs the node's full /metrics body — counter
// families, gauges and the per-stage latency histograms, over a dataset name
// that exercises label escaping — through the parser-strictness checker. The
// seed handlers drifted from the exposition format (bare series without
// HELP/TYPE, %q-escaped labels); this test pins the repaired output.
func TestMetricsExpositionStrict(t *testing.T) {
	c := New()
	t.Cleanup(func() { c.Close() })
	// A name with a backslash and a quote: %q-style escaping would emit
	// sequences strict parsers reject; the exposition escaping must handle
	// exactly these three specials (\, ", newline).
	name := `fb\"prod"`
	eng := makeEngine(t, "facebook", 0.2)
	if _, err := c.Mount(name, eng, engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	// Populate the read-path histograms: one computed miss, one cache hit.
	req := query.Request{Query: 0, Method: query.MethodStructural, K: 2}
	for i := 0; i < 2; i++ {
		if _, _, err := eng.QueryWithMetrics(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := WriteMetrics(&buf, c.Infos()); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("node /metrics fails strict parsing: %v\nbody:\n%s", err, body)
	}
	// The histogram families the tentpole adds must be present with full
	// bucket/sum/count structure and the escaped dataset label.
	for _, want := range []string{
		"# TYPE sea_query_latency_seconds histogram",
		"# TYPE sea_query_stage_latency_seconds histogram",
		"# TYPE sea_mutation_stage_latency_seconds histogram",
		`sea_query_latency_seconds_bucket{graph="fb\\\"prod\"",outcome="miss",le="+Inf"} 1`,
		`sea_query_latency_seconds_sum{graph="fb\\\"prod\"",outcome="miss"}`,
		`sea_query_latency_seconds_count{graph="fb\\\"prod\"",outcome="hit"} 1`,
		`sea_query_stage_latency_seconds_bucket{graph="fb\\\"prod\"",stage="search",le=`,
		`sea_mutation_stage_latency_seconds_count{graph="fb\\\"prod\"",stage="apply"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q in:\n%s", want, body)
		}
	}
}
