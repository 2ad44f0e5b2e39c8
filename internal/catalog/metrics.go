package catalog

// Prometheus text-format exposition of the catalog's serving state: the
// engine.Stats counters and cache occupancy per dataset, the
// shape/journal/replication gauges of Info, and the per-stage latency
// histograms the engines record (internal/obs) — queries by stage and
// outcome, mutations by stage — labelled by dataset so one scrape covers
// the whole catalog.

import (
	"io"

	"repro/internal/engine"
	"repro/internal/obs"
)

// family is one metric family of the node's /metrics: name, type, help, and
// how a dataset's Info yields its series.
type family struct {
	name string
	typ  string // "counter", "gauge" or "histogram"
	help string
	// value is the sample of a counter or gauge family.
	value func(Info) float64
	// hist and scale are the one series of a histogram family.
	hist  func(Info) obs.Snapshot
	scale float64
	// stages marks where the engine's stage families render (writeStages).
	stages bool
}

var families = []family{
	{name: "sea_queries_total", typ: "counter", help: "Search/batch requests accepted.",
		value: func(i Info) float64 { return float64(i.Stats.Queries) }},
	{name: "sea_search_runs_total", typ: "counter", help: "Searches actually executed (cache and admission misses).",
		value: func(i Info) float64 { return float64(i.Stats.SearchRuns) }},
	{name: "sea_coalesced_total", typ: "counter", help: "Requests that joined an identical in-flight query.",
		value: func(i Info) float64 { return float64(i.Stats.Coalesced) }},
	{name: "sea_index_rejects_total", typ: "counter", help: "Requests rejected by the shared admission index without a search.",
		value: func(i Info) float64 { return float64(i.Stats.IndexRejects) }},
	{name: "sea_errors_total", typ: "counter", help: "Requests that returned an error.",
		value: func(i Info) float64 { return float64(i.Stats.Errors) }},
	{name: "sea_shed_total", typ: "counter", help: "Requests shed by MaxInFlight admission control (429).",
		value: func(i Info) float64 { return float64(i.Stats.Shed) }},
	{name: "sea_result_cache_hits_total", typ: "counter", help: "Result cache hits.",
		value: func(i Info) float64 { return float64(i.Stats.ResultHits) }},
	{name: "sea_result_cache_misses_total", typ: "counter", help: "Result cache misses.",
		value: func(i Info) float64 { return float64(i.Stats.ResultMisses) }},
	{name: "sea_result_cache_evictions_total", typ: "counter", help: "Result cache evictions.",
		value: func(i Info) float64 { return float64(i.Stats.ResultEvictions) }},
	{name: "sea_result_cache_entries", typ: "gauge", help: "Result cache occupancy.",
		value: func(i Info) float64 { return float64(i.Stats.ResultEntries) }},
	{name: "sea_mutations_total", typ: "counter", help: "Applied mutation batches.",
		value: func(i Info) float64 { return float64(i.Stats.Mutations) }},
	{name: "sea_deltas_applied_total", typ: "counter", help: "Applied mutation deltas.",
		value: func(i Info) float64 { return float64(i.Stats.DeltasApplied) }},
	{name: "sea_result_invalidations_total", typ: "counter", help: "Result cache entries dropped by scoped invalidation.",
		value: func(i Info) float64 { return float64(i.Stats.ResultInvalidations) }},
	{name: "sea_graph_version", typ: "gauge", help: "Graph generation (mutation batches applied since mount); the replication cursor.",
		value: func(i Info) float64 { return float64(i.Version) }},
	{name: "sea_graph_nodes", typ: "gauge", help: "Nodes in the served graph.",
		value: func(i Info) float64 { return float64(i.Nodes) }},
	{name: "sea_graph_edges", typ: "gauge", help: "Edges in the served graph.",
		value: func(i Info) float64 { return float64(i.Edges) }},
	{name: "sea_swaps_total", typ: "counter", help: "Hot-swaps (lineage changes) since mount.",
		value: func(i Info) float64 { return float64(i.Swaps) }},
	{name: "sea_journal_seq", typ: "gauge", help: "Last written journal sequence number (0 when unjournaled or freshly compacted).",
		value: func(i Info) float64 { return float64(i.JournalSeq) }},
	{name: "sea_journal_batches", typ: "gauge", help: "Journal batches awaiting compaction.",
		value: func(i Info) float64 { return float64(i.JournalBatches) }},
	{name: "sea_mapped_bytes", typ: "gauge", help: "Size of the zero-copy snapshot mapping backing the dataset (0 for heap mounts).",
		value: func(i Info) float64 { return float64(i.MappedBytes) }},
	{name: "sea_commit_submitted_total", typ: "counter", help: "Delta groups accepted onto the group-commit queue.",
		value: func(i Info) float64 { return float64(i.Commit.Submitted) }},
	{name: "sea_commit_shed_total", typ: "counter", help: "Delta groups shed by commit-queue backpressure (429).",
		value: func(i Info) float64 { return float64(i.Commit.Shed) }},
	{name: "sea_commit_flushes_total", typ: "counter", help: "Group-commit flushes (one journal record and one engine generation each).",
		value: func(i Info) float64 { return float64(i.Commit.Flushes) }},
	{name: "sea_commit_failures_total", typ: "counter", help: "Delta groups whose commit flush failed.",
		value: func(i Info) float64 { return float64(i.Commit.Failures) }},
	{name: "sea_commit_queue_depth", typ: "gauge", help: "Instantaneous commit-queue occupancy.",
		value: func(i Info) float64 { return float64(i.Commit.QueueDepth) }},
	// The engine's stage histograms: families, help text and series all come
	// from engine.Stages, so this table has no row per stage family.
	{stages: true},
	// The group-commit batcher's distributions: the batch-size histogram is
	// unit-less (groups per flush, scale 1); the queue-wait and flush
	// histograms observe nanoseconds and expose seconds.
	{name: "sea_commit_batch_size", typ: "histogram", help: "Delta groups coalesced per group-commit flush.",
		hist: func(i Info) obs.Snapshot { return i.Commit.BatchSize }, scale: 1},
	{name: "sea_commit_queue_wait_seconds", typ: "histogram", help: "Wait from commit-queue enqueue to flush start.",
		hist: func(i Info) obs.Snapshot { return i.Commit.QueueWait }, scale: 1e-9},
	{name: "sea_commit_flush_seconds", typ: "histogram", help: "Whole group-commit flush: batched apply, journal append, result fan-out.",
		hist: func(i Info) obs.Snapshot { return i.Commit.FlushLat }, scale: 1e-9},
}

// WriteMetrics renders the datasets' serving counters and latency
// histograms in the Prometheus text exposition format (version 0.0.4), one
// sample (or histogram labelset) per dataset per family with the dataset
// name as the graph label.
func WriteMetrics(w io.Writer, infos []Info) error {
	fw := obs.NewFamilyWriter(w)
	for _, f := range families {
		if f.stages {
			writeStages(fw, infos)
			continue
		}
		fw.Family(f.name, f.typ, f.help)
		for _, info := range infos {
			graph := obs.Label{Name: "graph", Value: info.Name}
			if f.value != nil {
				fw.Sample(f.value(info), graph)
			} else {
				fw.Histogram(f.hist(info), f.scale, graph)
			}
		}
	}
	return fw.Err()
}

// writeStages renders the engine's stage histograms: one family per run of
// engine.Stages rows sharing a Family, one series per dataset per row,
// observed in nanoseconds and exposed in seconds.
func writeStages(fw *obs.FamilyWriter, infos []Info) {
	for lo := 0; lo < len(engine.Stages); {
		fam, hi := engine.Stages[lo].Family, lo
		for hi < len(engine.Stages) && engine.Stages[hi].Family == fam {
			hi++
		}
		fw.Family(fam.Name, "histogram", fam.Help)
		for _, info := range infos {
			graph := obs.Label{Name: "graph", Value: info.Name}
			for st := lo; st < hi; st++ {
				d := engine.Stages[st]
				fw.Histogram(info.Latency[st], 1e-9, graph, obs.Label{Name: d.Label, Value: d.Value})
			}
		}
		lo = hi
	}
}
