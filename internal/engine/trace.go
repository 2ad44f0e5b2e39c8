package engine

// Per-request observability: stage-latency histograms, the span trace ring
// and the slow-query log. Counters (metrics.go) say how often things happen;
// the structures here say how long they take and which requests were the
// outliers.
//
// Histograms are obs.Histogram — the record path is three atomic adds, so
// every stage of every request is recorded unconditionally. The trace ring
// keeps the last Config.TraceRing spans (request id, stage timings, cache
// provenance) in fixed memory, readable at GET /debug/trace. The slow-query
// log writes one JSON line per request slower than Config.SlowQuery.

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// Stage indexes the engine's latency histograms. Read stages record
// per-request in QueryWithMetrics; mutation stages record per-batch in
// ApplyGroups (journal appends are recorded by the owner of the journal via
// ObserveJournalAppend, since the engine itself does not journal). Adding a
// stage is one constant here and one row of Stages.
type Stage int

const (
	StageAdmission        Stage = iota // shared-index admission check
	StageSearch                        // search execution proper, f(·,q) included
	StageTotalHit                      // whole request, served from the result cache
	StageTotalMiss                     // whole request, computed
	StageTotalCoalesced                // whole request, joined an in-flight twin
	StageTotalShed                     // whole request, shed by MaxInFlight admission
	StageMutateApply                   // session apply + materialize + index rebind
	StageMutateJournal                 // journal append (recorded by the catalog)
	StageMutateInvalidate              // scoped cache sweep
	NumStages
)

// StageFamily is one Prometheus histogram family of /metrics and its help
// text; the stages naming it are its series.
type StageFamily struct{ Name, Help string }

var (
	queryStageFamily = StageFamily{"sea_query_stage_latency_seconds",
		"Per-stage read-path latency: shared-index admission, search execution."}
	queryTotalFamily = StageFamily{"sea_query_latency_seconds",
		"Whole-request latency by outcome: result-cache hit, computed miss, coalesced join, admission shed."}
	mutateStageFamily = StageFamily{"sea_mutation_stage_latency_seconds",
		"Per-stage write-path latency: delta apply (fold+materialize+index), journal append (fsync included), scoped cache invalidation."}
)

// StageDesc is everything the serving surface says about one stage: its key
// under "latency" in /stats, and the Prometheus histogram family, label name
// and label value of its /metrics series.
type StageDesc struct {
	Key    string
	Family StageFamily
	Label  string
	Value  string
}

// Stages describes every Stage, in /stats and /metrics order (the rows of
// one family are contiguous).
var Stages = [NumStages]StageDesc{
	StageAdmission:        {"admission", queryStageFamily, "stage", "admission"},
	StageSearch:           {"search", queryStageFamily, "stage", "search"},
	StageTotalHit:         {"total_hit", queryTotalFamily, "outcome", "hit"},
	StageTotalMiss:        {"total_miss", queryTotalFamily, "outcome", "miss"},
	StageTotalCoalesced:   {"total_coalesced", queryTotalFamily, "outcome", "coalesced"},
	StageTotalShed:        {"total_shed", queryTotalFamily, "outcome", "shed"},
	StageMutateApply:      {"mutate_apply", mutateStageFamily, "stage", "apply"},
	StageMutateJournal:    {"mutate_journal", mutateStageFamily, "stage", "journal_append"},
	StageMutateInvalidate: {"mutate_invalidate", mutateStageFamily, "stage", "invalidate"},
}

// LatencyStats is a point-in-time snapshot of every stage histogram at full
// bucket resolution, indexed by Stage; Summary flattens it for JSON.
type LatencyStats [NumStages]obs.Snapshot

// LatencySummary is the flat digest of LatencyStats served by /stats:
// count/mean/p50/p90/p99/p999/max in microseconds per stage, indexed by
// Stage. It marshals as one JSON object keyed by Stages[·].Key, in stage
// order.
type LatencySummary [NumStages]obs.Summary

// MarshalJSON renders the summary as {"admission":{...},"search":{...},...}.
func (s LatencySummary) MarshalJSON() ([]byte, error) {
	out := []byte{'{'}
	for st, d := range Stages {
		v, err := json.Marshal(s[st])
		if err != nil {
			return nil, err
		}
		if st > 0 {
			out = append(out, ',')
		}
		out = append(strconv.AppendQuote(out, d.Key), ':')
		out = append(out, v...)
	}
	return append(out, '}'), nil
}

// UnmarshalJSON is MarshalJSON's inverse; unknown keys are ignored, absent
// ones left zero.
func (s *LatencySummary) UnmarshalJSON(data []byte) error {
	var m map[string]obs.Summary
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for st, d := range Stages {
		s[st] = m[d.Key]
	}
	return nil
}

// Summary flattens the snapshots into the JSON form.
func (l LatencyStats) Summary() LatencySummary {
	var out LatencySummary
	for st := range l {
		out[st] = l[st].Summary()
	}
	return out
}

// Latency snapshots every stage histogram at once: ≈2 000 atomic loads and
// ≈16 KB copied, the price of a /stats or /metrics answer. Pollers that only
// need a name, version or journal position (follower ticks, router probes)
// must not pay it; LatencySnapshots lets tests hold them to that.
func (e *Engine) Latency() LatencyStats {
	e.latencySnaps.Add(1)
	var out LatencyStats
	for st := range e.lat {
		out[st] = e.lat[st].Snapshot()
	}
	return out
}

// LatencySnapshots counts the Latency calls made on this engine.
func (e *Engine) LatencySnapshots() uint64 { return e.latencySnaps.Load() }

// ObserveJournalAppend records one durability-path journal append (ns) into
// the mutation-stage histograms. The engine does not journal itself — the
// catalog (or any other journal owner) reports the append it performed for a
// batch this engine applied, so /metrics shows the full write path in one
// place.
func (e *Engine) ObserveJournalAppend(ns int64) { e.lat[StageMutateJournal].Observe(ns) }

type requestIDKey struct{}

// ContextWithRequestID attaches a correlation ID to ctx; every query served
// under it records the ID on its trace span.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFromContext returns the correlation ID attached by
// ContextWithRequestID ("" when none).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// SetName attributes this engine's spans and slow-query lines to a dataset
// name. The catalog calls it at mount/swap time; a bare engine stays
// anonymous.
func (e *Engine) SetName(name string) { e.name.Store(&name) }

// Name returns the attribution set by SetName ("" when none).
func (e *Engine) Name() string {
	if p := e.name.Load(); p != nil {
		return *p
	}
	return ""
}

// Span is one request's trace record: correlation id, dataset attribution,
// start timestamp and the full per-stage metrics row. Spans live in a
// fixed-size ring; GET /debug/trace?n= returns the newest n.
type Span struct {
	RequestID string `json:"request_id,omitempty"`
	Graph     string `json:"graph,omitempty"`
	StartNS   int64  `json:"start_unix_ns"`
	QueryMetrics
}

// Trace returns up to n spans, newest first (n ≤ 0 returns everything the
// ring holds).
func (e *Engine) Trace(n int) []Span {
	if e.trace == nil {
		return nil
	}
	return e.trace.Last(n)
}

// recordQuery is the per-request observability tail, called once per
// QueryWithMetrics: stage histograms, the span ring, and the slow-query log.
func (e *Engine) recordQuery(requestID string, start time.Time, qm QueryMetrics) {
	switch {
	case qm.Shed:
		// Shed requests get their own outcome series: their point is that
		// they stay fast, and folding them into the miss histogram would
		// fake a p50 improvement exactly when the node is overloaded.
		e.lat[StageTotalShed].Observe(qm.TotalNS)
	case qm.Coalesced:
		e.lat[StageTotalCoalesced].Observe(qm.TotalNS)
	case qm.ResultHit:
		e.lat[StageTotalHit].Observe(qm.TotalNS)
	default:
		e.lat[StageTotalMiss].Observe(qm.TotalNS)
	}
	// Stage histograms only count requests where the stage actually ran:
	// admission is skipped on a result-cache hit or a malformed request, and
	// a coalesced joiner carries the shared execution's search timing,
	// which the executing request already recorded.
	ranSearch := qm.SearchNS > 0
	if !qm.ResultHit && (qm.IndexHit || ranSearch || qm.Err == "") {
		e.lat[StageAdmission].Observe(qm.IndexNS)
	}
	if ranSearch && !qm.Coalesced {
		e.lat[StageSearch].Observe(qm.SearchNS)
	}

	if e.trace == nil && e.cfg.SlowQuery <= 0 {
		return
	}
	span := Span{
		RequestID:    requestID,
		Graph:        e.Name(),
		StartNS:      start.UnixNano(),
		QueryMetrics: qm,
	}
	if e.trace != nil {
		e.trace.Add(span)
	}
	if e.cfg.SlowQuery > 0 && qm.TotalNS >= e.cfg.SlowQuery.Nanoseconds() {
		e.logSlow(span)
	}
}

// logSlow writes one structured line for a threshold-crossing request. The
// writer is shared and line-buffered under a mutex; a slow-query flood
// serializes here, never on the request path's histograms.
func (e *Engine) logSlow(span Span) {
	w := e.cfg.SlowQueryLog
	if w == nil {
		w = os.Stderr
	}
	line, err := json.Marshal(struct {
		Kind string `json:"kind"`
		Span
	}{Kind: "slow_query", Span: span})
	if err != nil {
		return
	}
	slowMu.Lock()
	w.Write(append(line, '\n'))
	slowMu.Unlock()
}

// slowMu serializes slow-query lines process-wide, so engines sharing a
// writer (every dataset of one catalog logging to stderr) never interleave
// partial lines.
var slowMu sync.Mutex
