package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
)

func TestLatencyHistogramsRecord(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	ctx := context.Background()
	req := query.DefaultRequest(q)
	req.K = 6

	if _, _, err := e.QueryWithMetrics(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, qm, err := e.QueryWithMetrics(ctx, req); err != nil || !qm.ResultHit {
		t.Fatalf("identical request missed the cache: hit=%v err=%v", qm.ResultHit, err)
	}

	lat := e.Latency()
	if lat[StageTotalMiss].Count != 1 {
		t.Fatalf("total_miss count = %d, want 1", lat[StageTotalMiss].Count)
	}
	if lat[StageTotalHit].Count != 1 {
		t.Fatalf("total_hit count = %d, want 1", lat[StageTotalHit].Count)
	}
	if lat[StageSearch].Count != 1 {
		t.Fatalf("search count = %d, want 1", lat[StageSearch].Count)
	}
	// The executed request must have spent time somewhere.
	if lat[StageTotalMiss].Sum == 0 {
		t.Fatal("total_miss sum is zero for an executed search")
	}
	sum := lat.Summary()
	if sum[StageTotalMiss].Count != 1 || sum[StageTotalMiss].P50US <= 0 {
		t.Fatalf("summary: %+v", sum[StageTotalMiss])
	}
	// The /stats form round-trips through JSON, so clients can decode it
	// into the same type.
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back LatencySummary
	if err := json.Unmarshal(data, &back); err != nil || back != sum {
		t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, back, sum)
	}
}

func TestTraceRingCapturesSpans(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	e.SetName("fbtest")
	ctx := ContextWithRequestID(context.Background(), "req-abc")
	req := query.DefaultRequest(q)
	req.K = 6
	if _, _, err := e.QueryWithMetrics(ctx, req); err != nil {
		t.Fatal(err)
	}

	spans := e.Trace(0)
	if len(spans) != 1 {
		t.Fatalf("trace holds %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.RequestID != "req-abc" {
		t.Fatalf("span request id %q", sp.RequestID)
	}
	if sp.Graph != "fbtest" {
		t.Fatalf("span graph %q", sp.Graph)
	}
	if sp.StartNS == 0 || sp.TotalNS <= 0 {
		t.Fatalf("span timings: %+v", sp)
	}
	if sp.Query != int64(q) || sp.ResultHit {
		t.Fatalf("span metrics: %+v", sp)
	}

	// Newest first: a second, cache-hitting query becomes spans[0].
	if _, _, err := e.QueryWithMetrics(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	spans = e.Trace(2)
	if len(spans) != 2 || !spans[0].ResultHit || spans[1].ResultHit {
		t.Fatalf("trace order: %+v", spans)
	}
}

func TestTraceRingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TraceRing = -1
	e, _, q := testEngine(t, cfg)
	req := query.DefaultRequest(q)
	req.K = 6
	if _, _, err := e.QueryWithMetrics(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if spans := e.Trace(0); spans != nil {
		t.Fatalf("tracing disabled but got %d spans", len(spans))
	}
}

// syncBuffer serializes writes: the slow-query log writer may be hit from
// concurrent request goroutines.
type syncBuffer struct {
	bytes.Buffer
}

func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	cfg := DefaultConfig()
	cfg.SlowQuery = time.Nanosecond // everything is slow
	cfg.SlowQueryLog = &buf
	e, _, q := testEngine(t, cfg)
	req := query.DefaultRequest(q)
	req.K = 6
	if _, _, err := e.QueryWithMetrics(ContextWithRequestID(context.Background(), "slow-1"), req); err != nil {
		t.Fatal(err)
	}

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query line logged")
	}
	var entry struct {
		Kind      string `json:"kind"`
		RequestID string `json:"request_id"`
		TotalNS   int64  `json:"total_ns"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log is not one JSON object per line: %v\n%s", err, line)
	}
	if entry.Kind != "slow_query" || entry.RequestID != "slow-1" || entry.TotalNS <= 0 {
		t.Fatalf("slow log entry: %+v", entry)
	}
}

func TestSlowQueryLogThresholdFilters(t *testing.T) {
	var buf syncBuffer
	cfg := DefaultConfig()
	cfg.SlowQuery = time.Hour // nothing is slow
	cfg.SlowQueryLog = &buf
	e, _, q := testEngine(t, cfg)
	req := query.DefaultRequest(q)
	req.K = 6
	if _, _, err := e.QueryWithMetrics(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("fast query logged as slow: %s", buf.String())
	}
}

func TestApplyResultStageTimings(t *testing.T) {
	e, d, q := testEngine(t, DefaultConfig())
	ctx := context.Background()
	req := query.DefaultRequest(q)
	req.K = 6
	// Warm the cache so invalidation has something to sweep.
	if _, _, err := e.QueryWithMetrics(ctx, req); err != nil {
		t.Fatal(err)
	}

	res, err := e.Apply([]mutate.Delta{mutate.AddEdge(q, pickNonNeighbor(t, e, q, d.Graph.NumNodes()))})
	if err != nil {
		t.Fatal(err)
	}
	if res.ApplyNS <= 0 {
		t.Fatalf("ApplyNS = %d, want > 0", res.ApplyNS)
	}
	if res.InvalidateNS < 0 {
		t.Fatalf("InvalidateNS = %d", res.InvalidateNS)
	}
	if res.TouchedNodes < 2 {
		t.Fatalf("TouchedNodes = %d, want the edge endpoints at least", res.TouchedNodes)
	}

	lat := e.Latency()
	if lat[StageMutateApply].Count != 1 || lat[StageMutateInvalidate].Count != 1 {
		t.Fatalf("mutation stage counts: apply=%d invalidate=%d, want 1 each",
			lat[StageMutateApply].Count, lat[StageMutateInvalidate].Count)
	}
}

// pickNonNeighbor finds a node that is not yet adjacent to q so AddEdge
// cannot collide with an existing edge.
func pickNonNeighbor(t *testing.T, e *Engine, q graph.NodeID, n int) graph.NodeID {
	t.Helper()
	adjacent := map[graph.NodeID]bool{q: true}
	var buf []graph.NodeID
	for _, w := range e.Graph().NeighborsInto(&buf, q) {
		adjacent[w] = true
	}
	for v := 0; v < n; v++ {
		if !adjacent[graph.NodeID(v)] {
			return graph.NodeID(v)
		}
	}
	t.Fatal("graph is complete; no non-neighbor to add an edge to")
	return 0
}
