package sea

// One benchmark per table and figure of the paper's evaluation (§VII), each
// delegating to the experiment runner that regenerates it, plus ablation
// benchmarks — each pairs a design decision with the alternative it
// replaced — and micro-benchmarks for the hot substrate operations.
//
// Two ablations run here: the stopping rule and the model ranking. The four
// whose control exists only to be measured live beside it, in the package it
// belongs to: GqFrontier and Sampling in internal/sampling, BLBVsBootstrap in
// internal/stats, CloneVsRollback in internal/kcore. `go test -run '^$'
// -bench Ablation ./...` runs all six.
//
// The table/figure benchmarks run the miniature experiment configuration so
// `go test -bench=.` completes in minutes; `cmd/seabench` runs the same code
// at full scale.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sampling"
	internalsea "repro/internal/sea"
	"repro/internal/stats"
	"repro/internal/truss"
	"repro/internal/ws"
)

// benchCfg is the miniature experiment configuration for benchmarks.
func benchCfg() experiments.Config {
	c := experiments.Quick()
	c.Queries = 2
	c.Scale = 0.1
	return c
}

var (
	benchOnce sync.Once
	benchData *dataset.Generated
	benchM    *attr.Metric
	benchQ    graph.NodeID
	benchDist []float64
)

// benchSetup generates one shared mid-size dataset for the micro and
// ablation benchmarks.
func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		d, err := dataset.Generate(dataset.Spec{
			Name: "bench", Nodes: 2000, MinCommunity: 16, MaxCommunity: 40,
			IntraDegree: 10, InterDegree: 0.8,
			TokensPerNode: 4, PoolSize: 6, Vocab: 160, NoiseProb: 0.15,
			NumDim: 2, NumSigma: 0.06, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		benchData = d
		m, err := attr.NewMetric(d.Graph, 0.5)
		if err != nil {
			panic(err)
		}
		benchM = m
		benchQ = d.QueryNodes(1, 6, 3)[0]
		benchDist = m.QueryDist(benchQ)
	})
}

// --- Tables and figures -------------------------------------------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// fig5Rows runs the Figure-5 comparison once per iteration on the smallest
// dataset so the a/b/c views stay cheap.
func fig5Rows(b *testing.B) []experiments.MethodRow {
	b.Helper()
	d, err := dataset.Homogeneous("facebook", 0.15)
	if err != nil {
		b.Fatal(err)
	}
	rows, err := benchCfg().RunMethods(d, false)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig5aAttributeDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig5Rows(b)
		for _, r := range rows {
			if r.Delta < 0 {
				b.Fatal("negative δ")
			}
		}
	}
}

func BenchmarkFig5bRelativeError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig5Rows(b)
		for _, r := range rows {
			if r.RelErr < 0 {
				b.Fatal("negative error")
			}
		}
	}
}

func BenchmarkFig5cResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := fig5Rows(b)
		for _, r := range rows {
			if r.TimeMS < 0 {
				b.Fatal("negative time")
			}
		}
	}
}

func BenchmarkFig5dStepBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5d(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2CrossMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3F1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6EgoNetworks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Pruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Heterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7SizeBounded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8Sensitivity(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table6(benchCfg(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Gamma(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScalability(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 1
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Scalability(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationStoppingRule compares the default full-trajectory search
// against the paper's literal first-satisfy stopping rule (Options.NoRefine).
func BenchmarkAblationStoppingRule(b *testing.B) {
	benchSetup(b)
	run := func(b *testing.B, noRefine bool) {
		opts := internalsea.DefaultOptions()
		opts.K = 6
		opts.MaxRounds = 2
		opts.NoRefine = noRefine
		for i := 0; i < b.N; i++ {
			opts.Seed = int64(i + 1)
			if _, err := internalsea.SearchWithDistContext(context.Background(), benchData.Graph, benchDist, benchQ, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("refine", func(b *testing.B) { run(b, false) })
	b.Run("first-satisfy", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationModelRanking measures the §II model hierarchy
// k-core ⪯ k-truss: extraction cost of each structural model around the
// same query.
func BenchmarkAblationModelRanking(b *testing.B) {
	benchSetup(b)
	b.Run("k-core", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if kcore.MaximalConnectedKCore(benchData.Graph, benchQ, 6) == nil {
				b.Skip("no 6-core")
			}
		}
	})
	b.Run("k-truss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if truss.MaximalConnectedKTruss(benchData.Graph, benchQ, 6) == nil {
				b.Skip("no 6-truss")
			}
		}
	})
}

// --- Serving engine -------------------------------------------------------

// BenchmarkEngineColdVsCached quantifies the engine's amortization of
// per-query serving cost. "cold" is the library path a naive server would
// pay per request: metric construction, then the search. "shared"
// reuses the engine's precomputed state (metric, admission index) but forces
// a result-cache miss (fresh seed per iteration).
// "cached" is the repeated-query fast path; the acceptance criterion is
// cached ≥ 5× faster than cold (in practice orders of magnitude).
func BenchmarkEngineColdVsCached(b *testing.B) {
	benchSetup(b)
	req := query.DefaultRequest(benchQ)
	req.K = 6
	req.MaxRounds = 2
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := query.Execute(ctx, benchData.Graph, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		e, err := engine.New(benchData.Graph, engine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		req := req
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Seed = int64(i + 1) // distinct key: result cache misses
			if _, err := e.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e, err := engine.New(benchData.Graph, engine.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Query(ctx, req); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineThroughput drives a repeated-query batch workload — 64
// requests over 8 distinct query nodes per iteration — through the engine's
// worker pool, the shape of traffic a community-search service sees.
func BenchmarkEngineThroughput(b *testing.B) {
	benchSetup(b)
	e, err := engine.New(benchData.Graph, engine.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	distinct := benchData.QueryNodes(8, 2, 21)
	reqs := make([]query.Request, 64)
	for i := range reqs {
		reqs[i] = query.DefaultRequest(distinct[i%len(distinct)])
		reqs[i].K = 2
		reqs[i].MaxRounds = 2
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, err := e.Batch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range items {
			if it.Err != nil {
				b.Fatal(it.Err)
			}
		}
	}
	b.ReportMetric(float64(len(reqs)), "queries/op")
}

// --- Substrate alloc-regression guards -----------------------------------
//
// Each BenchmarkSubstrate* benchmark doubles as a CI guard: before timing,
// it measures steady-state allocations with testing.AllocsPerRun (bytes, for
// BenchmarkSubstrateSEAMiss) against a warmed workspace and FAILS if the
// count regresses above the committed ceiling (~zero for the pooled hot
// paths). CI runs them via
// `go test -bench=BenchmarkSubstrate -benchtime=1x` (see Makefile
// bench-substrate).

// guardAllocs fails the benchmark when fn allocates more than limit per run
// in the steady state.
func guardAllocs(b *testing.B, limit float64, fn func()) {
	b.Helper()
	fn() // warm buffers and pools outside the measurement
	if allocs := testing.AllocsPerRun(20, fn); allocs > limit {
		b.Fatalf("allocs/op = %v, regression guard is %v", allocs, limit)
	}
}

// guardBytes fails the benchmark when fn allocates more than limit bytes per
// run, averaged over 16 runs of an fn the caller has warmed.
func guardBytes(b *testing.B, limit int64, fn func()) {
	b.Helper()
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		fn()
	}
	runtime.ReadMemStats(&after)
	if perRun := int64(after.TotalAlloc-before.TotalAlloc) / runs; perRun > limit {
		b.Fatalf("bytes/op = %d, regression guard is %d", perRun, limit)
	}
}

func BenchmarkSubstrateBuildGq(b *testing.B) {
	benchSetup(b)
	w := ws.Get()
	defer w.Release()
	const size = 800
	dst := make([]graph.NodeID, 0, size)
	guardAllocs(b, 0, func() {
		dst = sampling.BuildGqInto(dst[:0], benchData.Graph, benchQ, benchDist, size, w)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sampling.BuildGqInto(dst[:0], benchData.Graph, benchQ, benchDist, size, w)
	}
}

func BenchmarkSubstrateInducedCSR(b *testing.B) {
	benchSetup(b)
	w := ws.Get()
	defer w.Release()
	nodes := sampling.BuildGqInto(nil, benchData.Graph, benchQ, benchDist, 800, w)
	guardAllocs(b, 0, func() {
		graph.InducedStructureOf(benchData.Graph, nodes, &w.Sub)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.InducedStructureOf(benchData.Graph, nodes, &w.Sub)
	}
}

// BenchmarkSubstrateQueryDist is the whole f(·,q) vector the exact solver
// fills per search (the engine's SEA miss builds none): one allocation, the
// vector itself.
func BenchmarkSubstrateQueryDist(b *testing.B) {
	benchSetup(b)
	guardAllocs(b, 1, func() { benchM.QueryDist(benchQ) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchM.QueryDist(benchQ)
	}
}

func BenchmarkSubstrateWeightedSample(b *testing.B) {
	benchSetup(b)
	w := ws.Get()
	defer w.Release()
	gq := sampling.BuildGqInto(nil, benchData.Graph, benchQ, benchDist, 800, w)
	probs := sampling.ProbabilitiesInto(nil, gq, benchDist)
	rng := rand.New(rand.NewSource(1))
	dst := make([]graph.NodeID, 0, 160)
	guardAllocs(b, 0, func() {
		dst = sampling.WeightedSampleInto(dst[:0], gq, probs, 160, benchQ, rng, w)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = sampling.WeightedSampleInto(dst[:0], gq, probs, 160, benchQ, rng, w)
	}
}

// BenchmarkSubstrateBLB is one Bag of Little Bootstraps estimate over a
// 20-member candidate: the call's three scratch buffers and nothing per
// subsample. It is the paper's reference estimator; no search calls it.
func BenchmarkSubstrateBLB(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 20)
	for i := range values {
		values[i] = rng.Float64()
	}
	cfg := stats.DefaultBLB()
	guardAllocs(b, 3, func() {
		if _, err := stats.BLB(values, cfg, rng); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.BLB(values, cfg, rng)
	}
}

func BenchmarkSubstrateKCoreExtract(b *testing.B) {
	benchSetup(b)
	w := ws.Get()
	defer w.Release()
	var dst []graph.NodeID
	if dst = kcore.MaximalConnectedKCoreInto(dst[:0], benchData.Graph, benchQ, 6, w); dst == nil {
		b.Skip("query hosts no 6-core")
	}
	guardAllocs(b, 0, func() {
		dst = kcore.MaximalConnectedKCoreInto(dst[:0], benchData.Graph, benchQ, 6, w)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = kcore.MaximalConnectedKCoreInto(dst[:0], benchData.Graph, benchQ, 6, w)
	}
}

// BenchmarkSubstrateKTrussExtract is one warm k-truss round of SEA's S1:
// (k−1)-core prefilter, the reach from q, edge index, supports, threshold
// peel, maintainer.
// Everything but the maintainer's header comes from the workspace.
func BenchmarkSubstrateKTrussExtract(b *testing.B) {
	benchSetup(b)
	w := ws.Get()
	defer w.Release()
	if truss.MaximalSub(benchData.Graph, benchQ, 5, w) == nil {
		b.Fatal("query hosts no 5-truss: the guard would measure the prefilter alone")
	}
	guardAllocs(b, 1, func() {
		truss.MaximalSub(benchData.Graph, benchQ, 5, w)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		truss.MaximalSub(benchData.Graph, benchQ, 5, w)
	}
}

// BenchmarkSubstrateSEASearch is one warm search at the default options: what
// is left once the sample, its core and the maintainers are pooled is the
// generator, a maintainer header per round, RemoveCascade's result slices,
// the round trace and the answer (40 allocations; the interval of each
// estimate allocates nothing).
func BenchmarkSubstrateSEASearch(b *testing.B) {
	benchSetup(b)
	opts := internalsea.DefaultOptions()
	opts.K = 6
	search := func() {
		if _, err := internalsea.SearchWithDistContext(context.Background(), benchData.Graph, benchDist, benchQ, opts); err != nil {
			b.Fatal(err)
		}
	}
	guardAllocs(b, 48, search)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

// BenchmarkSubstrateSEAMiss is the engine's result-cache miss on the
// twitter analog (48 000 nodes, k-core at k=6): query.Run, a fresh seed per
// search. Its guard is on bytes, not allocations:
// a search evaluates f at the nodes it touches, and its per-node arrays come
// from pooled workspaces, so it allocates ~70 KB, under the 4·n = 192 KB
// ceiling, where one f(·,q) vector is 8·n. An O(|V|) allocation per search
// coming back — a vector filled up front, a per-search set sized to the
// graph — fails it.
func BenchmarkSubstrateSEAMiss(b *testing.B) {
	d, err := dataset.Homogeneous("twitter", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, query.DefaultGamma)
	if err != nil {
		b.Fatal(err)
	}
	req := query.Request{Query: d.QueryNodes(1, 6, 3)[0], K: 6}
	ctx := context.Background()
	search := func() {
		req.Seed++ // a distinct request each time, as on a miss
		if _, err := query.Run(ctx, d.Graph, m, req); err != nil {
			b.Fatal(err)
		}
	}
	// Serial searches take the free list's workspaces in turn; each grows
	// its per-node arrays to the graph once.
	for range 2*runtime.GOMAXPROCS(0) + 1 {
		search()
	}
	n := int64(d.Graph.NumNodes())
	guardBytes(b, 4*n, search)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

func BenchmarkSubstrateInKCoreSet(b *testing.B) {
	benchSetup(b)
	members := kcore.MaximalConnectedKCore(benchData.Graph, benchQ, 6)
	if members == nil {
		b.Skip("query hosts no 6-core")
	}
	guardAllocs(b, 0, func() {
		kcore.InKCoreSet(benchData.Graph, members, 6)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kcore.InKCoreSet(benchData.Graph, members, 6)
	}
}

// BenchmarkSubstrateApply is one single-delta Engine.Apply on the twitch
// analog (8 000 nodes, 50 242 edges): add_edge between two non-adjacent
// nodes, and set_attr replacing one node's tokens. A batch copies only the
// column it wrote and shares the others with the previous generation, so
// each stays under one full copy of the graph's arrays (~700 KB; add_edge
// allocates ~510 KB, set_attr ~215 KB). A whole-graph copy per batch coming
// back fails it.
func BenchmarkSubstrateApply(b *testing.B) {
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		b.Fatal(err)
	}
	raw := d.Graph.Export()
	fullCopy := 4*int64(len(raw.Offsets)+len(raw.Adj)+len(raw.TextOff)+len(raw.Text)) + 8*int64(len(raw.Num))
	tags := d.Graph.Dict().Names()
	rng := rand.New(rand.NewSource(1))
	node := func() graph.NodeID { return graph.NodeID(rng.Intn(d.Graph.NumNodes())) }
	for _, c := range []struct {
		name string
		next func(g graph.Store) mutate.Delta
	}{
		{"add_edge", func(g graph.Store) mutate.Delta {
			for {
				if u, v := node(), node(); u != v && !g.HasEdge(u, v) {
					return mutate.Delta{Op: mutate.OpAddEdge, U: u, V: v}
				}
			}
		}},
		{"set_attr", func(graph.Store) mutate.Delta {
			return mutate.Delta{Op: mutate.OpSetAttr, U: node(),
				Text: []string{tags[rng.Intn(len(tags))], tags[rng.Intn(len(tags))]}}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, err := engine.New(d.Graph, engine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			step := func() {
				if _, err := e.Apply([]mutate.Delta{c.next(e.Graph())}); err != nil {
					b.Fatal(err)
				}
			}
			step() // the first mutation seeds the per-edge trussness table
			guardBytes(b, fullCopy, step)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// hitCaller issues one pre-built POST through a handler with the request,
// body reader and writer reused, the way benchmark/ruler.go does, so what is
// counted is the handler's own work.
type hitCaller struct {
	h    http.Handler
	url  url.URL
	hdr  http.Header
	body []byte
	rd   hitReader
	req  http.Request
	w    hitWriter
}

type hitReader struct{ bytes.Reader }

func (*hitReader) Close() error { return nil }

type hitWriter struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func (w *hitWriter) Header() http.Header         { return w.hdr }
func (w *hitWriter) WriteHeader(status int)      { w.status = status }
func (w *hitWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (c *hitCaller) call() {
	clear(c.w.hdr)
	c.w.status = 0
	c.w.buf.Reset()
	c.rd.Reset(c.body)
	c.req = http.Request{
		Method: http.MethodPost, URL: &c.url, RequestURI: c.url.Path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Host: "bench", Body: &c.rd, ContentLength: int64(len(c.body)),
	}
	c.h.ServeHTTP(&c.w, &c.req)
}

// hitBody is the read body the benchmark's hot-read mix sends to path, on
// the bench graph.
func hitBody(path string) string {
	const spec = `,"k":6,"model":"core","e":0.02,"confidence":0.95,"seed":1}`
	switch path {
	case "/batch":
		qs, _ := json.Marshal(benchData.QueryNodes(8, 6, 3))
		return fmt.Sprintf(`{"graph":"bench","queries":%s,"method":"sea"`+spec, qs)
	case "/compare":
		return fmt.Sprintf(`{"graph":"bench","q":%d,"methods":["sea","structural"]`+spec, benchQ)
	default:
		return fmt.Sprintf(`{"graph":"bench","q":%d,"method":"sea"`+spec, benchQ)
	}
}

// serveHitCaller mounts the bench dataset in a catalog behind
// NewCatalogHTTPHandler and returns a caller for path's request, already
// answered once so every further call is a result-cache hit.
func serveHitCaller(b *testing.B, path string) *hitCaller {
	b.Helper()
	benchSetup(b)
	cfg := DefaultEngineConfig()
	e, err := NewEngine(benchData.Graph, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cat := NewCatalog()
	b.Cleanup(func() { cat.Close() })
	if _, err := cat.Mount("bench", e, cfg, "memory"); err != nil {
		b.Fatal(err)
	}
	c := &hitCaller{h: NewCatalogHTTPHandler(cat, cfg), url: url.URL{Path: path}, body: []byte(hitBody(path)),
		hdr: http.Header{"Content-Type": {"application/json"}}}
	c.w.hdr = make(http.Header)
	c.call()
	if c.w.status != http.StatusOK {
		b.Fatalf("warm %s %s: status %d: %s", path, c.body, c.w.status, c.w.buf.Bytes())
	}
	c.call()
	if !bytes.Contains(c.w.buf.Bytes(), []byte(`"result_hit":true`)) || bytes.Contains(c.w.buf.Bytes(), []byte(`"result_hit":false`)) {
		b.Fatalf("repeat of %s %s is not all hits: %s", path, c.body, c.w.buf.Bytes())
	}
	return c
}

// BenchmarkSubstrateServeHit guards what a cache hit allocates end to end:
// one cached POST /search, one cached /batch of 8 and one cached /compare of
// two methods through the catalog handler allocate nothing — the body is
// scanned into the pooled scratch's spare, the items are the scratch's, the
// header value is shared — and each may take one allocation before this
// fails. With encoding/json on both sides and a goroutine pool per batch
// /search and /batch were 18 and 36 allocations, and 3 and 5 while a scan
// allocated what it read.
func BenchmarkSubstrateServeHit(b *testing.B) {
	search := serveHitCaller(b, "/search")
	guardAllocs(b, 1, search.call)
	guardAllocs(b, 1, serveHitCaller(b, "/batch").call)
	guardAllocs(b, 1, serveHitCaller(b, "/compare").call)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.call()
	}
}

func benchServeHit(b *testing.B, path string) {
	c := serveHitCaller(b, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.call()
	}
}

func BenchmarkServeHitSearch(b *testing.B)  { benchServeHit(b, "/search") }
func BenchmarkServeHitBatch8(b *testing.B)  { benchServeHit(b, "/batch") }
func BenchmarkServeHitCompare(b *testing.B) { benchServeHit(b, "/compare") }

// BenchmarkServeHitParallel is BenchmarkServeHitSearch from two goroutines,
// one caller each, on the same cached /search — the benchmark's two
// closed-loop clients. What the single-caller benchmarks cannot show is the
// price of every write the hit path makes to state the other caller also
// writes. An op is one call of either goroutine.
func BenchmarkServeHitParallel(b *testing.B) {
	first := serveHitCaller(b, "/search")
	second := &hitCaller{h: first.h, url: first.url, body: first.body, hdr: first.hdr.Clone()}
	second.w.hdr = make(http.Header)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g, c := range []*hitCaller{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += 2 {
				c.call()
			}
		}()
	}
	wg.Wait()
}

// BenchmarkServeHitParallelHotSet is BenchmarkServeHitParallel over the
// benchmark's hot-read traffic shape: 256 cached /search bodies, each of the
// two callers drawing them zipf(1.1) in its own order. Distinct keys land on
// different cache shards and entries, so this shows what lines moving
// between cores on different keys cost, which one repeated key cannot.
func BenchmarkServeHitParallelHotSet(b *testing.B) {
	const hotSet, draws = 256, 1 << 12
	first := serveHitCaller(b, "/search")
	nodes := benchData.QueryNodes(hotSet, 6, 3)
	bodies := make([][]byte, hotSet)
	for i := range bodies {
		// Fewer nodes than bodies: the SEA seed tells the repeats apart.
		bodies[i] = fmt.Appendf(nil, `{"graph":"bench","q":%d,"method":"sea","k":6,"model":"core","e":0.02,"confidence":0.95,"seed":%d}`,
			nodes[i%len(nodes)], 1+i/len(nodes))
		first.body = bodies[i]
		first.call()
		first.call()
		if first.w.status != http.StatusOK || !bytes.Contains(first.w.buf.Bytes(), []byte(`"result_hit":true`)) {
			b.Fatalf("repeat of %s is not a hit: status %d: %s", bodies[i], first.w.status, first.w.buf.Bytes())
		}
	}
	callers := []*hitCaller{first, {h: first.h, url: first.url, hdr: first.hdr.Clone()}}
	callers[1].w.hdr = make(http.Header)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g, c := range callers {
		zipf := rand.NewZipf(rand.New(rand.NewSource(int64(g+1))), 1.1, 1, hotSet-1)
		seq := make([]uint16, draws)
		for i := range seq {
			seq[i] = uint16(zipf.Uint64())
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += 2 {
				c.body = bodies[seq[(i/2)%draws]]
				c.call()
			}
		}()
	}
	wg.Wait()
}

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkCoreDecompose(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kcore.Decompose(benchData.Graph)
	}
}

func BenchmarkTrussDecompose(b *testing.B) {
	benchSetup(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		truss.Decompose(benchData.Graph)
	}
}

func BenchmarkSEASearch(b *testing.B) {
	benchSetup(b)
	opts := internalsea.DefaultOptions()
	opts.K = 6
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, err := internalsea.SearchWithDistContext(context.Background(), benchData.Graph, benchDist, benchQ, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSEASearchTruss is BenchmarkSEASearch under the k-truss model.
func BenchmarkSEASearchTruss(b *testing.B) {
	benchSetup(b)
	opts := internalsea.DefaultOptions()
	opts.K = 5 // benchQ hosts a 5-truss, no 6-truss
	opts.Model = internalsea.KTruss
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		if _, err := internalsea.SearchWithDistContext(context.Background(), benchData.Graph, benchDist, benchQ, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSearch(b *testing.B) {
	benchSetup(b)
	cfg := exact.DefaultConfig()
	cfg.MaxStates = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SearchContext(context.Background(), benchData.Graph, benchQ, 6, benchDist, cfg); err != nil && err != exact.ErrBudgetExhausted {
			b.Fatal(err)
		}
	}
}
