package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
)

// twoClusterGraph builds two disconnected dense clusters (nodes [0,size) and
// [size,2·size)), each a clique, so the scoped invalidation has a provably
// unaffected half to keep warm.
func twoClusterGraph(t testing.TB, size int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2*size, 1)
	for v := 0; v < 2*size; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tag%d", v%4))
		b.SetNumAttrs(graph.NodeID(v), float64(v%7)/7)
	}
	for c := 0; c < 2; c++ {
		lo := c * size
		for u := lo; u < lo+size; u++ {
			for v := u + 1; v < lo+size; v++ {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.MustBuild()
}

// TestApplyVisibleWithoutSwap proves the acceptance criterion: a mutation
// is visible in query results on the same engine value, no hot-swap, and
// the incremental admission index agrees with the new graph.
func TestApplyVisibleWithoutSwap(t *testing.T) {
	g := twoClusterGraph(t, 8)
	e, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// A structural query bridging the clusters finds nothing yet.
	req := query.Request{Query: 0, Method: query.MethodStructural, K: 7}.WithDefaults()
	before, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Community) != 8 {
		t.Fatalf("pre-mutation community %v", before.Community)
	}

	// Bridge node 0 into the second cluster with enough edges to join its
	// 7-core.
	var deltas []mutate.Delta
	for v := graph.NodeID(8); v < 16; v++ {
		deltas = append(deltas, mutate.AddEdge(0, v))
	}
	res, err := e.Apply(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != len(deltas) || res.Version != 1 || e.Version() != 1 {
		t.Fatalf("apply result %+v, engine version %d", res, e.Version())
	}
	if res.Edges != g.NumEdges()+8 {
		t.Fatalf("edges = %d, want %d", res.Edges, g.NumEdges()+8)
	}

	after, err := e.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Community) != 16 {
		t.Fatalf("post-mutation community has %d nodes, want 16: %v", len(after.Community), after.Community)
	}
	if e.Coreness(0) != 8 {
		// Node 0 sits in the original 8-clique (coreness 7) and now has 8
		// extra neighbors of coreness ≥ 7; the merged structure lifts it.
		t.Logf("coreness(0) = %d", e.Coreness(0))
	}
	// The old graph value is untouched.
	if g.NumEdges() != res.Edges-8 {
		t.Fatalf("base graph mutated: %d edges", g.NumEdges())
	}
}

// requireSameAsRebuilt asserts that the live engine answers each request
// exactly as a fresh engine built over its current graph.
func requireSameAsRebuilt(t *testing.T, live *Engine, reqs ...query.Request) {
	t.Helper()
	rebuilt, err := New(live.Graph(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		a, errA := live.Query(context.Background(), r)
		b, errB := rebuilt.Query(context.Background(), r)
		if errA != nil || errB != nil {
			t.Fatalf("request %+v: live err %v, rebuilt err %v", r, errA, errB)
		}
		if !reflect.DeepEqual(a.Community, b.Community) || a.Delta != b.Delta {
			t.Fatalf("request %+v:\nlive    %v δ=%v\nrebuilt %v δ=%v", r, a.Community, a.Delta, b.Community, b.Delta)
		}
	}
}

// TestApplyScopedInvalidationKeepsWarm caches results in both clusters,
// mutates only cluster A, and asserts via Engine.Stats that cluster B's
// entries survive (warm hits) while cluster A's are dropped and recomputed.
func TestApplyScopedInvalidationKeepsWarm(t *testing.T) {
	e, err := New(twoClusterGraph(t, 8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqA := query.Request{Query: 1, Method: query.MethodStructural, K: 3}.WithDefaults()
	reqB := query.Request{Query: 9, Method: query.MethodStructural, K: 3}.WithDefaults()
	seaB := query.Request{Query: 10, Method: query.MethodSEA, K: 3, Seed: 1}.WithDefaults()
	for _, r := range []query.Request{reqA, reqB, seaB} {
		if _, err := e.Query(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	// Mutate cluster A only: remove an edge inside it.
	res, err := e.Apply([]mutate.Delta{mutate.RemoveEdge(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultsInvalidated != 1 {
		t.Fatalf("ResultsInvalidated = %d, want 1 (only cluster A's entry): %+v", res.ResultsInvalidated, res)
	}

	// Cluster B stays warm: both requests hit the result cache.
	for _, r := range []query.Request{reqB, seaB} {
		out, qm, err := e.QueryWithMetrics(ctx, r)
		if err != nil || out == nil {
			t.Fatal(err)
		}
		if !qm.ResultHit {
			t.Fatalf("request %+v missed the cache after an unrelated mutation", r)
		}
	}
	// Cluster A misses (recomputed on the new graph).
	_, qm, err := e.QueryWithMetrics(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if qm.ResultHit {
		t.Fatal("cluster A's entry survived a mutation in its region")
	}
	requireSameAsRebuilt(t, e, reqA, reqB, seaB)

	st := e.Stats()
	if st.Mutations != 1 || st.DeltasApplied != 1 || st.GraphVersion != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.ResultInvalidations != 1 {
		t.Fatalf("invalidation stats %+v", st)
	}
}

// TestApplyAttrInvalidation checks the attribute path: results of the
// touched component drop, the other component's stay warm across an
// appended node, and both re-query as a rebuilt engine answers.
func TestApplyAttrInvalidation(t *testing.T) {
	e, err := New(twoClusterGraph(t, 8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqA := query.Request{Query: 1, Method: query.MethodSEA, K: 3, Seed: 1}.WithDefaults()
	reqB := query.Request{Query: 9, Method: query.MethodSEA, K: 3, Seed: 1}.WithDefaults()
	for _, r := range []query.Request{reqA, reqB} {
		if _, err := e.Query(ctx, r); err != nil {
			t.Fatal(err)
		}
	}

	res, err := e.Apply([]mutate.Delta{
		mutate.SetAttr(2, []string{"fresh-tag"}, nil),
		mutate.AddNode([]string{"tag0"}, []float64{0.5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultsInvalidated != 1 {
		t.Fatalf("ResultsInvalidated = %d, want 1 (query 1's entry, same component as node 2)", res.ResultsInvalidated)
	}
	if len(res.NewNodes) != 1 || res.NewNodes[0] != 16 {
		t.Fatalf("NewNodes = %v", res.NewNodes)
	}

	// Cluster B's result survives.
	_, qm, err := e.QueryWithMetrics(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if !qm.ResultHit {
		t.Fatal("cluster B result dropped by an attribute change in cluster A")
	}
	// Cluster A's result dropped.
	_, qm, err = e.QueryWithMetrics(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	if qm.ResultHit {
		t.Fatalf("cluster A served stale cache: %+v", qm)
	}
	requireSameAsRebuilt(t, e, reqA, reqB)
}

// TestApplyAllOrNothing proves a failing delta aborts the whole batch: the
// graph, the version and the per-edge trussness table are as before it, and
// the next valid batch lands on them exactly as on a rebuilt engine.
func TestApplyAllOrNothing(t *testing.T) {
	e, err := New(twoClusterGraph(t, 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A first batch makes the per-edge table the engine maintains, not the
	// construction column, what ExportIndex reads.
	if _, err := e.Apply([]mutate.Delta{mutate.RemoveEdge(1, 2)}); err != nil {
		t.Fatal(err)
	}
	edges, version, etruss := e.Graph().NumEdges(), e.Version(), e.ExportIndex().EdgeTruss
	_, err = e.Apply([]mutate.Delta{
		mutate.AddEdge(0, 5),
		mutate.AddEdge(0, 0), // invalid
	})
	if !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("err = %v", err)
	}
	if e.Graph().NumEdges() != edges || e.Version() != version {
		t.Fatal("failed batch mutated the engine")
	}
	if got := e.ExportIndex().EdgeTruss; !reflect.DeepEqual(got, etruss) {
		t.Fatalf("failed batch changed the edge trussness: %v, want %v", got, etruss)
	}
	if _, err := e.Apply(nil); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("empty batch: %v", err)
	}

	if _, err := e.Apply([]mutate.Delta{mutate.AddEdge(0, 5)}); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := New(e.Graph(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.ExportIndex(), rebuilt.ExportIndex(); !reflect.DeepEqual(got.Coreness, want.Coreness) ||
		!reflect.DeepEqual(got.NodeTruss, want.NodeTruss) || !reflect.DeepEqual(got.EdgeTruss, want.EdgeTruss) {
		t.Fatalf("index after the next batch:\nlive    %+v\nrebuilt %+v", got, want)
	}
	var reqs []query.Request
	for _, r := range []struct {
		q     graph.NodeID
		model sea.Model
		k     int
	}{{0, sea.KCore, 2}, {5, sea.KCore, 3}, {0, sea.KTruss, 3}, {5, sea.KTruss, 4}} {
		reqs = append(reqs, query.Request{Query: r.q, Method: query.MethodStructural, Model: r.model, K: r.k}.WithDefaults())
	}
	requireSameAsRebuilt(t, e, reqs...)
}

// TestApplyEquivalentToRebuild is the overlay-vs-compacted property: after
// a random mutation sequence applied live, every request answers exactly as
// a fresh engine built from the final graph — including the incrementally
// maintained truss admission path.
func TestApplyEquivalentToRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(60, 2)
	for v := 0; v < 60; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("t%d", rng.Intn(6)), fmt.Sprintf("t%d", rng.Intn(6)))
		b.SetNumAttrs(graph.NodeID(v), rng.Float64(), rng.Float64())
	}
	for u := 0; u < 60; u++ {
		for v := u + 1; v < 60; v++ {
			if rng.Float64() < 0.12 {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	cfg := DefaultConfig()
	live, err := New(b.MustBuild(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		// Warm some caches so mutations must invalidate correctly.
		for q := graph.NodeID(0); q < 12; q++ {
			_, _ = live.Query(ctx, query.Request{Query: q * 5, Method: query.MethodStructural, K: 2 + int(q)%3}.WithDefaults())
		}
		var deltas []mutate.Delta
		g := live.Graph()
		for len(deltas) < 6 {
			u := graph.NodeID(rng.Intn(g.NumNodes()))
			v := graph.NodeID(rng.Intn(g.NumNodes()))
			switch rng.Intn(4) {
			case 0, 1:
				if u != v && !g.HasEdge(u, v) && !hasDelta(deltas, mutate.OpAddEdge, u, v) {
					deltas = append(deltas, mutate.AddEdge(u, v))
				}
			case 2:
				var nbuf []graph.NodeID
				if ns := g.NeighborsInto(&nbuf, u); len(ns) > 0 {
					w := ns[rng.Intn(len(ns))]
					if !hasDelta(deltas, mutate.OpRemoveEdge, u, w) && !hasDelta(deltas, mutate.OpAddEdge, u, w) {
						deltas = append(deltas, mutate.RemoveEdge(u, w))
					}
				}
			default:
				deltas = append(deltas, mutate.SetAttr(u, []string{fmt.Sprintf("t%d", rng.Intn(6))}, nil))
			}
		}
		if _, err := live.Apply(deltas); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}

		rebuilt, err := New(live.Graph(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for q := graph.NodeID(0); int(q) < live.Graph().NumNodes(); q += 11 {
			for _, m := range []query.Method{query.MethodStructural, query.MethodSEA, query.MethodExact} {
				for _, model := range []sea.Model{sea.KCore, sea.KTruss} {
					if m == query.MethodExact && model == sea.KTruss {
						continue
					}
					req := query.Request{Query: q, Method: m, K: 3, Model: model, Seed: 1, MaxStates: 3_000}.WithDefaults()
					a, errA := live.Query(ctx, req)
					b, errB := rebuilt.Query(ctx, req)
					if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
						t.Fatalf("round %d q=%d %s/%s: live err %v, rebuilt err %v", round, q, m, model, errA, errB)
					}
					if errA != nil {
						continue
					}
					if !reflect.DeepEqual(a.Community, b.Community) || a.Delta != b.Delta {
						t.Fatalf("round %d q=%d %s/%s:\nlive    %v δ=%v\nrebuilt %v δ=%v",
							round, q, m, model, a.Community, a.Delta, b.Community, b.Delta)
					}
				}
			}
		}
	}
}

func hasDelta(ds []mutate.Delta, op mutate.Op, u, v graph.NodeID) bool {
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	for _, d := range ds {
		x, y := d.U, d.V
		if x > y {
			x, y = y, x
		}
		if d.Op == op && x == a && y == b {
			return true
		}
	}
	return false
}

// TestConcurrentQueryMutate runs queries, mutations and snapshot writes
// concurrently; under -race this proves the atomic state publication and
// the epoch-guarded cache fills are sound.
func TestConcurrentQueryMutate(t *testing.T) {
	e, err := New(twoClusterGraph(t, 8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := e.Graph().NumNodes()
				req := query.Request{
					Query:  graph.NodeID(rng.Intn(n)),
					Method: query.MethodStructural,
					K:      1 + rng.Intn(4),
				}.WithDefaults()
				if rng.Intn(3) == 0 {
					req.Method = query.MethodSEA
					req.Seed = 1
				}
				_, err := e.Query(ctx, req)
				if err != nil && !errors.Is(err, cserr.ErrNoCommunity) && !errors.Is(err, ErrQueryOutOfRange) {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30; i++ {
		g := e.Graph()
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		var d mutate.Delta
		switch {
		case rng.Intn(4) == 0:
			d = mutate.AddNode([]string{"x"}, []float64{0.1})
		case u != v && !g.HasEdge(u, v):
			d = mutate.AddEdge(u, v)
		case u != v && g.HasEdge(u, v):
			d = mutate.RemoveEdge(u, v)
		default:
			d = mutate.SetAttr(u, []string{"y"}, nil)
		}
		if _, err := e.Apply([]mutate.Delta{d}); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if got := e.Version(); got != 30 {
		t.Fatalf("version = %d, want 30", got)
	}
}
