package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
)

// testDataset builds a small planted-community graph shared by the tests.
func testDataset(t testing.TB) *dataset.Generated {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "engine-test", Nodes: 400, MinCommunity: 12, MaxCommunity: 28,
		IntraDegree: 8, InterDegree: 0.8,
		TokensPerNode: 4, PoolSize: 5, Vocab: 80, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testEngine(t testing.TB, cfg Config) (*Engine, *dataset.Generated, graph.NodeID) {
	t.Helper()
	d := testDataset(t)
	e, err := New(d.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d, d.QueryNodes(1, 6, 3)[0]
}

// testReq is the SEA request the tests share: paper defaults, k=6, two
// incremental rounds.
func testReq(q graph.NodeID) query.Request {
	r := query.DefaultRequest(q)
	r.K = 6
	r.MaxRounds = 2
	return r
}

func TestEngineMatchesDirectSearch(t *testing.T) {
	e, d, q := testEngine(t, DefaultConfig())
	req := testReq(q)

	out, err := e.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got := out.SEA
	m, err := attr.NewMetric(d.Graph, DefaultConfig().Gamma)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sea.SearchWithDistContext(context.Background(), d.Graph, m.QueryDist(q), q, req.Options())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Community) != fmt.Sprint(want.Community) {
		t.Errorf("community mismatch:\nengine %v\ndirect %v", got.Community, want.Community)
	}
	if got.Delta != want.Delta || got.CI != want.CI || got.Satisfied != want.Satisfied {
		t.Errorf("result mismatch: engine δ=%v CI=%v sat=%v, direct δ=%v CI=%v sat=%v",
			got.Delta, got.CI, got.Satisfied, want.Delta, want.CI, want.Satisfied)
	}
}

func TestEngineResultCacheHit(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	req := testReq(q)
	ctx := context.Background()

	first, qm1, err := e.QueryWithMetrics(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if qm1.ResultHit {
		t.Fatalf("first query must miss: %+v", qm1)
	}
	second, qm2, err := e.QueryWithMetrics(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !qm2.ResultHit {
		t.Fatalf("second identical query must hit the result cache: %+v", qm2)
	}
	if second != first {
		t.Error("cache hit should return the shared result")
	}
	if s := e.Stats(); s.SearchRuns != 1 || s.ResultHits != 1 {
		t.Errorf("stats after hit: %+v", s)
	}

	// The same query node under different parameters is a different entry.
	req2 := req
	req2.K = 4
	_, qm3, err := e.QueryWithMetrics(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if qm3.ResultHit {
		t.Fatalf("changed options must miss the result cache: %+v", qm3)
	}
}

// TestEngineCacheEviction fills a capacity-2 cache, two shards of one slot,
// with three requests chosen by the engine's own hash: the first and the
// third share a shard, so the third evicts the first, and the second fills
// the other.
func TestEngineCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResultCacheSize = 2
	e, d, _ := testEngine(t, cfg)
	ctx := context.Background()

	if n := len(e.results.shards); n != 2 {
		t.Fatalf("a capacity-2 cache has %d shards; the test places requests in 2", n)
	}
	var byShard [2][]query.Request
	for _, q := range d.QueryNodes(16, 2, 5) {
		r := testReq(q)
		r.K = 2 // low k so any query node hosts a community
		c := r.WithDefaults()
		i := requestHash(&c) % 2
		byShard[i] = append(byShard[i], r)
	}
	shared, other := byShard[0], byShard[1]
	if len(shared) < 2 {
		shared, other = other, shared
	}
	if len(shared) < 2 || len(other) < 1 {
		t.Fatalf("16 query nodes put %d and %d requests in the two shards", len(byShard[0]), len(byShard[1]))
	}
	reqs := []query.Request{shared[0], other[0], shared[1]}
	for _, r := range reqs {
		if _, err := e.Query(ctx, r); err != nil {
			t.Fatalf("q=%d: %v", r.Query, err)
		}
	}
	s := e.Stats()
	if s.ResultEvictions < 1 {
		t.Fatalf("expected evictions from a capacity-2 cache: %+v", s)
	}
	if s.ResultEntries != 2 {
		t.Fatalf("expected a full cache: %+v", s)
	}
	// The oldest query was evicted, so it recomputes.
	_, qm, err := e.QueryWithMetrics(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if qm.ResultHit {
		t.Fatalf("evicted query should recompute, got %+v", qm)
	}
}

// TestEngineRetainsNoVectorPerQuery: the engine is index-free — serving a
// query node leaves behind its cached Outcome and nothing of size O(n), above
// all not the f(·,q) distance vector the search ran on.
func TestEngineRetainsNoVectorPerQuery(t *testing.T) {
	const n, distinct = 1 << 17, 32 // 1 MiB of distances per search
	// ws keeps up to two workspaces per processor and serial searches take
	// them in turn, so it takes that many warm-up searches before every one
	// an earlier test left there has grown to n nodes.
	warm := 2 * runtime.GOMAXPROCS(0)
	b := graph.NewBuilder(n, 0)
	for c := 0; c < distinct+warm; c++ { // one 4-clique per query node
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				b.AddEdge(graph.NodeID(4*c+i), graph.NodeID(4*c+j))
			}
		}
	}
	e, err := New(b.MustBuild(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	serve := func(q graph.NodeID) {
		req := query.DefaultRequest(q)
		req.K = 3
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
	}
	// The warm-up first: a workspace grown to n nodes goes back on the free
	// list and stays resident, so it belongs in the baseline.
	for c := distinct; c < distinct+warm; c++ {
		serve(graph.NodeID(4 * c))
	}
	before := heap()
	for c := 0; c < distinct; c++ {
		serve(graph.NodeID(4 * c))
	}
	perQuery := (int64(heap()) - int64(before)) / distinct
	if perQuery > n/8 { // 1/64 of the 8·n bytes one retained vector costs
		t.Fatalf("each distinct query node retains %d B; a distance vector is %d B", perQuery, 8*n)
	}
	if s := e.Stats(); s.ResultEntries != distinct+warm {
		t.Fatalf("result cache holds %d entries, want %d", s.ResultEntries, distinct+warm)
	}
	runtime.KeepAlive(e)
}

func TestEngineIndexReject(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())
	ctx := context.Background()

	// Pick the node with the smallest coreness; asking for k one above its
	// coreness must be rejected by the shared index, with no search run.
	var q graph.NodeID
	for v := 0; v < d.Graph.NumNodes(); v++ {
		if e.Coreness(graph.NodeID(v)) < e.Coreness(q) {
			q = graph.NodeID(v)
		}
	}
	req := testReq(q)
	req.K = int(e.Coreness(q)) + 1

	_, qm, err := e.QueryWithMetrics(ctx, req)
	if !errors.Is(err, sea.ErrNoCommunity) {
		t.Fatalf("want ErrNoCommunity, got %v", err)
	}
	if !qm.IndexHit {
		t.Fatalf("want index reject, got %+v", qm)
	}
	if s := e.Stats(); s.IndexRejects != 1 || s.SearchRuns != 0 {
		t.Fatalf("reject must not run a search: %+v", s)
	}
	// The index's answer agrees with an actual search.
	m, _ := attr.NewMetric(d.Graph, DefaultConfig().Gamma)
	if _, err := query.Run(ctx, d.Graph, m, req); !errors.Is(err, sea.ErrNoCommunity) {
		t.Fatalf("direct search disagrees with index: %v", err)
	}

	// Same for the truss-level index.
	treq := req
	treq.Model = sea.KTruss
	treq.K = int(e.st.Load().truss[q]) + 1
	_, qm, err = e.QueryWithMetrics(ctx, treq)
	if !errors.Is(err, sea.ErrNoCommunity) || !qm.IndexHit {
		t.Fatalf("truss reject: err=%v metrics=%+v", err, qm)
	}
	if _, err := query.Run(ctx, d.Graph, m, treq); !errors.Is(err, sea.ErrNoCommunity) {
		t.Fatalf("direct truss search disagrees with index: %v", err)
	}
}

func TestEngineCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	e, _, q := testEngine(t, cfg)
	req := testReq(q)
	key := flightKey{req: req.WithDefaults(), version: e.Version()}

	e.sem <- struct{}{} // block the compute path behind the concurrency cap

	const callers = 6
	results := make(chan *query.Outcome, callers)
	errc := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			res, err := e.Query(context.Background(), req)
			results <- res
			errc <- err
		}()
	}
	waitFor(t, func() bool { return e.flight.waiting(key) == callers }, "callers to coalesce")
	<-e.sem // release; the single shared computation proceeds

	var first *query.Outcome
	for i := 0; i < callers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		res := <-results
		if first == nil {
			first = res
		} else if res != first {
			t.Fatal("coalesced callers should share one result")
		}
	}
	s := e.Stats()
	if s.SearchRuns != 1 {
		t.Fatalf("coalesced queries ran %d searches, want 1", s.SearchRuns)
	}
	if s.Coalesced != callers-1 {
		t.Fatalf("coalesced=%d, want %d", s.Coalesced, callers-1)
	}
}

func TestEngineRequestDeadline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1
	cfg.RequestTimeout = time.Nanosecond
	e, _, q := testEngine(t, cfg)
	req := testReq(q)

	e.sem <- struct{}{} // hold the computation so the deadline must fire
	_, _, err := e.QueryWithMetrics(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	<-e.sem

	// The deadline cancelled the underlying computation (no caller was left
	// waiting), so nothing lands in the cache and the slot is free again; a
	// request that brings its own ample deadline succeeds from scratch.
	waitFor(t, func() bool {
		e.flight.mu.Lock()
		defer e.flight.mu.Unlock()
		return len(e.flight.calls) == 0
	}, "cancelled computation to drain")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, qm, err := e.QueryWithMetrics(ctx, req)
	if err != nil || res == nil || qm.ResultHit {
		t.Fatalf("fresh retry: res=%v metrics=%+v err=%v", res, qm, err)
	}
}

// batchReqs is one k=2 request per query node.
func batchReqs(qs []graph.NodeID) []query.Request {
	reqs := make([]query.Request, len(qs))
	for i, q := range qs {
		reqs[i] = testReq(q)
		reqs[i].K = 2
	}
	return reqs
}

func TestEngineBatch(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())

	qs := d.QueryNodes(4, 2, 9)
	queries := append(append([]graph.NodeID{}, qs...), qs[0]) // duplicate tail
	items, err := e.Batch(context.Background(), batchReqs(queries))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(queries) {
		t.Fatalf("got %d items, want %d", len(items), len(queries))
	}
	for i, it := range items {
		if it.Request.Query != queries[i] {
			t.Fatalf("item %d out of order: %d != %d", i, it.Request.Query, queries[i])
		}
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
	}
	// The duplicate was served without a second execution.
	if s := e.Stats(); s.SearchRuns != uint64(len(qs)) {
		t.Errorf("runs=%d, want %d (duplicate must not recompute)", s.SearchRuns, len(qs))
	}

	var sb strings.Builder
	if err := WriteMetricsCSV(&sb, items); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(items)+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), len(items)+1)
	}
	if !strings.HasPrefix(lines[0], "query,k,model,") {
		t.Fatalf("bad CSV header: %q", lines[0])
	}
}

func TestEngineBatchCancelled(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := e.Batch(ctx, batchReqs(d.QueryNodes(3, 2, 9)))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Err == nil {
			t.Fatal("cancelled batch items must carry an error")
		}
	}
}

func TestEngineInvalidInputs(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	ctx := context.Background()

	bad := testReq(q)
	bad.K = -1 // 0 would resolve to the default
	if _, err := e.Query(ctx, bad); err == nil {
		t.Error("invalid request accepted")
	}
	if _, err := e.Query(ctx, testReq(-1)); err == nil {
		t.Error("negative query accepted")
	}
	if _, err := e.Query(ctx, testReq(graph.NodeID(e.Graph().NumNodes()))); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil graph accepted")
	}
	cfg := DefaultConfig()
	cfg.Gamma = 2
	if _, err := New(testDataset(t).Graph, cfg); err == nil {
		t.Error("invalid gamma accepted")
	}
}

// TestEngineConcurrentMixed hammers one engine with a mix of models, ks,
// invalid queries and a tiny cache; run under -race this is the
// concurrent-access test of the serving layer.
func TestEngineConcurrentMixed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResultCacheSize = 8
	e, d, _ := testEngine(t, cfg)
	qs := d.QueryNodes(8, 2, 17)

	const goroutines = 16
	done := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		go func(gi int) {
			ctx := context.Background()
			for i := 0; i < 10; i++ {
				q := qs[(gi+i)%len(qs)]
				if gi%5 == 4 && i%3 == 0 {
					q = -1 // invalid on purpose
				}
				req := testReq(q)
				req.K = 2 + (gi+i)%3
				if gi%4 == 3 {
					req.Model = sea.KTruss
					req.K = 3
				}
				res, err := e.Query(ctx, req)
				if q == -1 {
					if err == nil {
						done <- errors.New("invalid query accepted")
						return
					}
					continue
				}
				if err != nil && !errors.Is(err, sea.ErrNoCommunity) {
					done <- fmt.Errorf("q=%d k=%d: %w", q, req.K, err)
					return
				}
				if err == nil && len(res.Community) == 0 {
					done <- errors.New("empty community without error")
					return
				}
			}
			done <- nil
		}(gi)
	}
	for i := 0; i < goroutines; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Queries == 0 || s.SearchRuns == 0 {
		t.Fatalf("stress ran nothing: %+v", s)
	}
}

// TestEngineCachedSpeedup codifies the acceptance criterion: the cached path
// must be at least 5× faster than a cold query.Execute (in practice it is
// orders of magnitude faster — one cold search vs one cache lookup).
func TestEngineCachedSpeedup(t *testing.T) {
	e, d, q := testEngine(t, DefaultConfig())
	req := testReq(q)
	ctx := context.Background()

	if _, err := e.Query(ctx, req); err != nil { // warm
		t.Fatal(err)
	}

	// Both sides are the best of 3, so one descheduled block cannot fail
	// the ratio: the cached side a mean over a block of 50 hits.
	const iters = 50
	cached := time.Duration(1<<63 - 1)
	for range 3 {
		tc := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := e.Query(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		cached = min(cached, time.Since(tc)/iters)
	}

	cold := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := query.Execute(ctx, d.Graph, req); err != nil {
			t.Fatal(err)
		}
		if el := time.Since(t0); el < cold {
			cold = el
		}
	}
	if cached == 0 {
		return // below timer resolution: trivially faster
	}
	if ratio := float64(cold) / float64(cached); ratio < 5 {
		t.Fatalf("cached path only %.1f× faster than cold search (cold %v, cached %v); want ≥ 5×",
			ratio, cold, cached)
	}
}
