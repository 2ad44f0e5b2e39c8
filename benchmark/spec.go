package main

// The metric vocabulary of the benchmark. BENCHMARK.json at the repo root
// lists exactly these names, units, directions and bounds; TestSpecMatchesJSON
// fails when the two drift apart.

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the serving stack sees. Every workload
// reports every one of them, and none is ever 0. The timing bounds are the
// widest the contract allows: the 2-core sandbox the benchmark was sized on
// changes speed by 10–25% for minutes at a time, and the spread (quartile
// distance over median) of ten runs of unchanged code reached 0.22.
// BASELINE.md has the runs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"delta_mean", "delta", "lower", 0.05},
	{"rss_mb", "MB", "lower", 0.20},
}

// perLayer are the metrics of single layers, named <module>.<metric> after
// the packages under internal/. They are taken in the traced run. A layer a
// workload never enters reports 0 there.
var perLayer = []metricSpec{
	// The ruler itself.
	{"harness.ns_per_op", "ns", "lower", 0},
	{"harness.trace_overhead_frac", "ratio", "lower", 0},
	{"harness.trace_coverage_frac", "ratio", "higher", 0},
	{"harness.traced_ops", "count", "higher", 0},

	// Depth 1: the catalog HTTP handler.
	{"catalog.http_self_us", "us", "lower", 0},
	{"catalog.http_resp_bytes", "B", "lower", 0},
	{"catalog.search_p50_us", "us", "lower", 0},
	{"catalog.search_p95_us", "us", "lower", 0},
	{"catalog.search_p99_us", "us", "lower", 0},
	{"catalog.search_hit_p50_us", "us", "lower", 0},
	{"catalog.search_miss_p50_us", "us", "lower", 0},
	{"catalog.batch_p50_us", "us", "lower", 0},
	{"catalog.compare_p50_us", "us", "lower", 0},
	{"catalog.mutate_p50_us", "us", "lower", 0},
	{"catalog.mutate_p95_us", "us", "lower", 0},
	{"catalog.mutate_set_attr_p50_us", "us", "lower", 0},
	{"catalog.mutate_add_edge_p50_us", "us", "lower", 0},
	{"catalog.mutate_remove_edge_p50_us", "us", "lower", 0},
	{"catalog.no_community_frac", "ratio", "lower", 0},
	{"catalog.mutate_us", "us", "lower", 0},
	{"catalog.mount_ms", "ms", "lower", 0},

	// Depth 2: the engine.
	{"engine.hit_us", "us", "lower", 0},
	{"engine.miss_us", "us", "lower", 0},
	{"engine.batch_us", "us", "lower", 0},
	{"engine.compare_us", "us", "lower", 0},
	{"engine.self_us", "us", "lower", 0},
	{"engine.result_hit_frac", "ratio", "higher", 0},
	{"engine.dist_hit_frac", "ratio", "higher", 0},
	{"engine.coalesced_frac", "ratio", "higher", 0},
	{"engine.index_reject_frac", "ratio", "lower", 0},
	{"engine.apply_set_attr_us", "us", "lower", 0},
	{"engine.apply_add_edge_us", "us", "lower", 0},
	{"engine.apply_remove_edge_us", "us", "lower", 0},
	{"engine.invalidate_us", "us", "lower", 0},
	{"engine.invalidated_per_mutation", "count", "lower", 0},
	{"engine.warm_s", "s", "lower", 0},

	// Depth 3: the by-hand pipeline.
	{"attr.querydist_us", "us", "lower", 0},
	{"sea.search_us", "us", "lower", 0},
	{"sea.s1_sampling_us", "us", "lower", 0},
	{"sea.s2_estimation_us", "us", "lower", 0},
	{"sea.s3_incremental_us", "us", "lower", 0},
	{"sea.rounds_mean", "count", "lower", 0},
	{"sea.sample_size_mean", "count", "lower", 0},
	{"sea.gq_size_mean", "count", "lower", 0},
	{"sea.satisfied_frac", "ratio", "higher", 0},
	{"commit.queue_wait_us", "us", "lower", 0},
	{"commit.batch_size_mean", "count", "higher", 0},
	{"store.journal_append_us", "us", "lower", 0},
	{"store.journal_fsync_us", "us", "lower", 0},
	{"store.fsyncs_per_mutation", "count", "lower", 0},
	{"store.journal_bytes_per_mutation", "B", "lower", 0},

	// Depth 4: the primitives, on the same inputs.
	{"sampling.buildgq_us", "us", "lower", 0},
	{"sampling.weighted_sample_us", "us", "lower", 0},
	{"stats.blb_us", "us", "lower", 0},
	{"kcore.maximal_us", "us", "lower", 0},
	{"kcore.newsub_us", "us", "lower", 0},
	{"kcore.decompose_us", "us", "lower", 0},
	{"truss.maximal_us", "us", "lower", 0},
	{"truss.newsub_us", "us", "lower", 0},
	{"truss.decompose_us", "us", "lower", 0},
	{"graph.sweep_heap_ns_per_edge", "ns", "lower", 0},
	{"graph.sweep_mapped_ns_per_edge", "ns", "lower", 0},

	// Set-up, stage by stage.
	{"store.pack_s", "s", "lower", 0},
	{"store.snapshot_bytes", "B", "lower", 0},
	{"store.replay_ms", "ms", "lower", 0},
}

// printedOnly are measured and printed with the rest but are in neither
// list of BENCHMARK.json: their run-to-run spread is too wide for a bound, or
// they only qualify a traced run.
var printedOnly = []metricSpec{
	{"op_p99_us", "us", "lower", 0},
	{"op_mean_us", "us", "lower", 0},
	{"satisfied_frac", "ratio", "higher", 0},
	{"rate_drift_frac", "ratio", "lower", 0},
	{"harness.twin_out_of_step", "count", "lower", 0},
}

// metricValue is one reported number with its unit, the shape the driver
// reads from the last line of standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report renders values in the order and with the units of specs. A name
// missing from values reports 0: the layer was not entered.
func report(specs []metricSpec, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
	}
	return out
}
