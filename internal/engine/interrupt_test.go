package engine

// Regression tests for request interruption: per-item deadlines must cancel
// the underlying search (not just the wait), and the unified Query path
// must answer every registered method through the shared index and caches.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
)

// slowEngine builds an engine over a 6000-node ring lattice whose SEA
// search takes hundreds of milliseconds (see internal/sea's cancellation
// test for the workload's anatomy), with one concurrency slot (and so one
// Batch worker) so a stuck search blocks everything behind it.
func slowEngine(t testing.TB, timeout time.Duration) *Engine {
	t.Helper()
	const n, d = 6000, 6
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder(n, 1)
	for i := 0; i < n; i++ {
		b.SetNumAttrs(graph.NodeID(i), rng.Float64())
		for j := 1; j <= d; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+j)%n))
		}
	}
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.RequestTimeout = timeout
	e, err := New(b.MustBuild(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// slowRequest makes one SEA round walk the full greedy peel of the
// whole-graph community: sample everything, demand an unreachable bound.
func slowRequest(q graph.NodeID) query.Request {
	req := query.DefaultRequest(q)
	req.K = 4
	req.Lambda = 1
	req.Eps = 0.01
	req.ErrorBound = 0.0001
	req.MaxRounds = 1
	return req
}

// TestBatchItemTimeoutInterruptsSearch is the regression test for the
// engine's per-item deadline: with one worker and one concurrency slot,
// three artificially slow queries (~500ms each if left alone) must all be
// cancelled at their ~50ms deadlines, so the whole batch finishes in well
// under the ~1.5s the uninterrupted searches would take.
func TestBatchItemTimeoutInterruptsSearch(t *testing.T) {
	e := slowEngine(t, 50*time.Millisecond)
	reqs := []query.Request{slowRequest(0), slowRequest(2000), slowRequest(4000)}

	t0 := time.Now()
	items, err := e.Batch(context.Background(), reqs)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if !errors.Is(it.Err, context.DeadlineExceeded) {
			t.Fatalf("item %d: want DeadlineExceeded, got %v", i, it.Err)
		}
	}
	// Three 50ms deadlines plus cancellation latency; an engine that only
	// abandoned the wait would keep the single slot busy for the full
	// search on every item and take several times longer.
	if elapsed > time.Second {
		t.Fatalf("batch with per-item 50ms deadlines took %v; deadlines are not interrupting searches", elapsed)
	}
}

// TestQueryAnswersEveryMethod drives one Request through every registered
// method via the unified engine path on a realistic dataset, checking
// caches and admission work method-agnostically.
func TestQueryAnswersEveryMethod(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	ctx := context.Background()
	for _, m := range query.Methods() {
		req := query.DefaultRequest(q)
		req.K = 2
		req.Method = m
		req.MaxStates = 20000
		out, qm, err := e.QueryWithMetrics(ctx, req)
		if err != nil && !errors.Is(err, ErrQueryOutOfRange) {
			// Budget exhaustion still carries a community.
			if out == nil || len(out.Community) == 0 {
				t.Fatalf("%v: %v", m, err)
			}
		}
		if qm.Method != m.String() {
			t.Fatalf("%v: metrics method %q", m, qm.Method)
		}
		// An identical request must now hit the cache (error-free runs only).
		if err == nil {
			out2, qm2, err2 := e.QueryWithMetrics(ctx, req)
			if err2 != nil || !qm2.ResultHit || out2 != out {
				t.Fatalf("%v: identical request missed the cache: hit=%v err=%v", m, qm2.ResultHit, err2)
			}
		}
	}
}

// TestQueryIndexRejectIsMethodAgnostic pins the shared admission index on
// the unified path: a query node whose coreness is below k is rejected for
// every method without running a search.
func TestQueryIndexRejectIsMethodAgnostic(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())
	var q graph.NodeID
	for v := 0; v < d.Graph.NumNodes(); v++ {
		if e.Coreness(graph.NodeID(v)) < e.Coreness(q) {
			q = graph.NodeID(v)
		}
	}
	runsBefore := e.Stats().SearchRuns
	for _, m := range []query.Method{query.MethodSEA, query.MethodExact, query.MethodVAC, query.MethodStructural} {
		req := query.DefaultRequest(q)
		req.K = int(e.Coreness(q)) + 1
		req.Method = m
		_, qm, err := e.QueryWithMetrics(context.Background(), req)
		if !errors.Is(err, sea.ErrNoCommunity) || !qm.IndexHit {
			t.Fatalf("%v: want index reject, got err=%v metrics=%+v", m, err, qm)
		}
	}
	if got := e.Stats().SearchRuns; got != runsBefore {
		t.Fatalf("index rejects ran %d searches", got-runsBefore)
	}
}

// TestRequestRoundTripsThroughEngine is the acceptance criterion's
// library-vs-engine leg: one Request answered directly by a Searcher and
// through the Engine yields the identical community and δ.
func TestRequestRoundTripsThroughEngine(t *testing.T) {
	e, d, q := testEngine(t, DefaultConfig())
	for _, m := range []query.Method{query.MethodSEA, query.MethodExact, query.MethodVAC} {
		// k=6 keeps the maximal community small enough for exact to finish.
		req := query.DefaultRequest(q)
		req.K = 6
		req.Method = m
		req.MaxStates = 500000

		viaEngine, err := e.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%v engine: %v", m, err)
		}
		s, err := query.NewSearcher(m)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.Search(context.Background(), d.Graph, req)
		if err != nil {
			t.Fatalf("%v direct: %v", m, err)
		}
		if fmt.Sprint(viaEngine.Community) != fmt.Sprint(direct.Community) || viaEngine.Delta != direct.Delta {
			t.Fatalf("%v: engine %v δ=%v vs direct %v δ=%v",
				m, viaEngine.Community, viaEngine.Delta, direct.Community, direct.Delta)
		}
	}
}
