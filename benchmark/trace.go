package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/sea"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/truss"
	"repro/internal/ws"
)

// The traced run. Spans come only from this file, around calls into each
// layer's public functions; nothing inside the program is instrumented. To
// keep a request cold at every depth while the work stays identical (SEA is
// deterministic per (q, seed)), each depth has its own twin of the program,
// opened from the same snapshot:
//
//	depth 1  the catalog HTTP handler                       (the run itself)
//	depth 2  Engine.QueryWithMetrics / Batch, Catalog.Mutate
//	depth 3  Metric.QueryDist → sea.SearchWithDistContext by hand,
//	         Engine.ApplyGroups + Journal.AppendGroups
//	depth 4  the primitives of one SEA round on the same inputs
//
// A layer's self time is its span minus the span one depth down on the same
// op. The depth-3 answer must equal the depth-1 response, which doubles as a
// correctness check.

// span is one timed call. Spans of one op share its index; Parent names the
// span one depth up. Times are microseconds since the traced window began.
type span struct {
	Op      int64   `json:"op"`
	Depth   int     `json:"depth"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// maxSpans bounds the spans a client keeps for the trace file; the layer
// sums keep counting past it.
const maxSpans = 20000

// agg is a running mean.
type agg struct {
	sum float64
	n   int
}

// aggs are the per-layer sums of one client, by metric name.
type aggs map[string]*agg

func (a aggs) add(name string, v float64) {
	x := a[name]
	if x == nil {
		x = &agg{}
		a[name] = x
	}
	x.sum += v
	x.n++
}

func (a aggs) mean(name string) float64 {
	if x := a[name]; x != nil && x.n > 0 {
		return x.sum / float64(x.n)
	}
	return 0
}

func (a aggs) merge(o aggs) {
	for name, x := range o {
		y := a[name]
		if y == nil {
			y = &agg{}
			a[name] = y
		}
		y.sum += x.sum
		y.n += x.n
	}
}

// clientTrace is what one client records in the traced window.
type clientTrace struct {
	layers  aggs
	hit     *recorder // depth-1 /search latencies served from the result cache
	miss    *recorder // ... and computed
	spans   []span
	dropped int
}

func newClientTrace() *clientTrace {
	return &clientTrace{layers: aggs{}, hit: newRecorder(), miss: newRecorder()}
}

func (ct *clientTrace) span(op int64, depth int, name, parent string, start, took time.Duration) {
	if len(ct.spans) >= maxSpans {
		ct.dropped++
		return
	}
	ct.spans = append(ct.spans, span{Op: op, Depth: depth, Name: name, Parent: parent,
		StartUS: us(float64(start.Nanoseconds())), EndUS: us(float64((start + took).Nanoseconds()))})
}

func (ct *clientTrace) merge(o *clientTrace) {
	ct.layers.merge(o.layers)
	ct.hit.merge(o.hit)
	ct.miss.merge(o.miss)
	ct.spans = append(ct.spans, o.spans...)
	ct.dropped += o.dropped
}

// tracer holds the twins the traced run descends into.
type tracer struct {
	e      *env
	t0     time.Time // start of the traced window
	static bool      // the graph never changes: depth 3 must equal depth 1

	twin2 *served        // depth 2
	eng2  *engine.Engine // the engine behind twin2

	mount3   *store.Mounted // depth 3: its own mapping of the snapshot
	eng3     *engine.Engine
	journal3 *store.Journal // nil unless the workload journals
	mu3      sync.Mutex     // a Journal has one writer
}

// newTracer opens the depth-2 and depth-3 twins from a's snapshot and brings
// them to a's state: first touch, then the warm set.
func newTracer(e *env, a *served, warm []*op) (*tracer, error) {
	tr := &tracer{e: e, static: !e.w.journaled}
	dir := filepath.Dir(a.snapshot)
	tr.twin2 = &served{snapshot: a.snapshot}
	if e.w.journaled {
		tr.twin2.journal = filepath.Join(dir, "twin2.journal")
	}
	if _, err := e.mount(tr.twin2); err != nil {
		return nil, err
	}
	if err := e.firstTouch(tr.twin2); err != nil {
		return nil, err
	}
	if _, _, failures := warmUp(tr.twin2.handler, warm); len(failures) > 0 {
		return nil, fmt.Errorf("warming the depth-2 twin: %s", failures[0])
	}
	tr.eng2 = tr.twin2.engine(e)

	var err error
	if tr.mount3, err = store.MountGraphFile(a.snapshot); err != nil {
		return nil, err
	}
	if tr.eng3, err = engine.NewFromSnapshot(tr.mount3.Snapshot(), e.cfg); err != nil {
		return nil, err
	}
	if e.w.journaled {
		if tr.journal3, _, err = store.OpenJournal(filepath.Join(dir, "twin3.journal")); err != nil {
			return nil, err
		}
		for _, o := range e.touch {
			if o.kind.isMutation() {
				if _, _, err := tr.eng3.ApplyGroups([][]mutate.Delta{o.deltas}); err != nil {
					return nil, err
				}
			}
		}
	}
	return tr, nil
}

func (tr *tracer) close() {
	tr.twin2.cat.Close()
	if tr.journal3 != nil {
		tr.journal3.Close()
	}
	tr.mount3.Close()
}

// descend re-runs one op one layer down at a time, after its depth-1 call
// has been timed. start is the depth-1 call's start since t0.
func (tr *tracer) descend(cl *client, i int64, o *op, status int, ans *answer, start, took time.Duration) {
	if cl.tr == nil {
		cl.tr = newClientTrace()
	}
	ct := cl.tr
	root := "catalog" + o.path
	ct.span(i, 1, root, "", start, took)
	d1 := float64(took.Nanoseconds())
	ct.layers.add("harness.d1_ns", d1)

	switch {
	case status != 200:
		// A 404 or a failure has nothing below the handler to attribute.
	case o.kind.isMutation():
		tr.descendMutation(cl, i, o, root, d1)
	case o.kind == opSearch && ans != nil:
		tr.descendSearch(cl, i, o, ans, root, d1)
	case o.kind == opBatch || o.kind == opCompare:
		t := time.Now()
		_, err := tr.eng2.Batch(context.Background(), o.reqs)
		d2 := time.Since(t)
		if err != nil {
			cl.fail("depth 2 %s: %v", o.body, err)
			return
		}
		ct.span(i, 2, "engine.Batch", root, t.Sub(tr.t0), d2)
		ct.layers.add("engine."+kindNames[o.kind]+"_us", us(float64(d2.Nanoseconds())))
		ct.layers.add("catalog.http_self_us", us(d1-float64(d2.Nanoseconds())))
		ct.layers.add("harness.trace_coverage_frac", 1)
	}
}

func (tr *tracer) descendSearch(cl *client, i int64, o *op, ans *answer, root string, d1 float64) {
	ct, req, ctx := cl.tr, o.reqs[0], context.Background()
	hit := ans.Metrics.ResultHit
	if hit {
		ct.hit.add(int64(d1))
	} else {
		ct.miss.add(int64(d1))
	}

	t := time.Now()
	_, qm, err := tr.eng2.QueryWithMetrics(ctx, req)
	took2 := time.Since(t)
	if err != nil {
		cl.fail("depth 2 %s: %v", o.body, err)
		return
	}
	ct.span(i, 2, "engine.QueryWithMetrics", root, t.Sub(tr.t0), took2)
	if qm.ResultHit != hit {
		// The two clients interleave reads and writes differently on the
		// twin than on the program, so their caches can be one op apart.
		// Such an op is left out of the layer sums, not mis-attributed.
		ct.layers.add("harness.twin_out_of_step", 1)
		return
	}
	d2 := float64(took2.Nanoseconds())
	ct.layers.add("catalog.http_self_us", us(d1-d2))
	if hit {
		ct.layers.add("engine.hit_us", us(d2))
		ct.layers.add("harness.trace_coverage_frac", 1)
		return
	}
	ct.layers.add("engine.miss_us", us(d2))

	// Depth 3: the pipeline the engine runs on a miss, by hand.
	g, m := tr.eng3.Graph(), tr.eng3.Metric()
	t = time.Now()
	dist := m.QueryDist(req.Query)
	tookDist := time.Since(t)
	ct.span(i, 3, "attr.Metric.QueryDist", "engine.QueryWithMetrics", t.Sub(tr.t0), tookDist)
	t = time.Now()
	res, err := sea.SearchWithDistContext(ctx, g, dist, req.Query, req.Options())
	tookSea := time.Since(t)
	if err != nil {
		cl.fail("depth 3 %s: %v", o.body, err)
		return
	}
	ct.span(i, 3, "sea.SearchWithDistContext", "engine.QueryWithMetrics", t.Sub(tr.t0), tookSea)
	if tr.static && (!slices.Equal(res.Community, ans.Community) || attr.Delta(dist, res.Community, req.Query) != ans.Delta) {
		cl.fail("%s: the by-hand pipeline and the handler disagree", o.body)
	}
	d3dist, d3sea := float64(tookDist.Nanoseconds()), float64(tookSea.Nanoseconds())
	steps := float64((res.Steps.Sampling + res.Steps.Estimation + res.Steps.Incremental).Nanoseconds())
	ct.layers.add("engine.self_us", us(d2-d3dist-d3sea))
	ct.layers.add("attr.querydist_us", us(d3dist))
	ct.layers.add("sea.search_us", us(d3sea))
	ct.layers.add("sea.s1_sampling_us", us(float64(res.Steps.Sampling.Nanoseconds())))
	ct.layers.add("sea.s2_estimation_us", us(float64(res.Steps.Estimation.Nanoseconds())))
	ct.layers.add("sea.s3_incremental_us", us(float64(res.Steps.Incremental.Nanoseconds())))
	ct.layers.add("sea.rounds_mean", float64(len(res.Rounds)))
	ct.layers.add("sea.sample_size_mean", float64(res.SampleSize))
	ct.layers.add("sea.gq_size_mean", float64(res.GqSize))
	satisfied := 0.0
	if res.Satisfied {
		satisfied = 1
	}
	ct.layers.add("sea.satisfied_frac", satisfied)
	covered := max(0, d1-d2) + max(0, d2-d3dist-d3sea) + d3dist + steps
	ct.layers.add("harness.trace_coverage_frac", min(1, covered/d1))

	tr.primitives(ct, i, g, dist, req, res)
}

// primitives times the building blocks of one SEA round on the op's own
// inputs: Gq construction, the weighted sample, the maximal structure inside
// the induced sample and its maintenance structure, and one BLB estimation
// over the answer's distances.
func (tr *tracer) primitives(ct *clientTrace, i int64, g graph.Store, dist []float64, req query.Request, res *sea.Result) {
	const parent = "sea.SearchWithDistContext"
	opts := req.Options()
	timeIt := func(name, metric string, fn func()) {
		t := time.Now()
		fn()
		took := time.Since(t)
		ct.span(i, 4, name, parent, t.Sub(tr.t0), took)
		ct.layers.add(metric, us(float64(took.Nanoseconds())))
	}
	w := ws.Get()
	defer w.Release()

	minGq, err := stats.MinGqSizeCore(opts.Eps, opts.Beta, opts.K, g.NumNodes())
	if opts.Model == sea.KTruss {
		minGq, err = stats.MinGqSizeTruss(opts.Eps, opts.Beta, opts.K, g.NumNodes())
	}
	if err != nil {
		return
	}
	var gq []graph.NodeID
	timeIt("sampling.BuildGqInto", "sampling.buildgq_us", func() {
		gq = sampling.BuildGqInto(w.Gq[:0], g, req.Query, dist, minGq, w)
	})
	w.Gq = gq
	w.Probs = sampling.ProbabilitiesInto(w.Probs[:0], gq, dist)
	// The sample has the size the search ended with, its largest: the rounds
	// before it worked on smaller ones, so a primitive's time here bounds its
	// time in any round.
	size := res.SampleSize
	rng := rand.New(rand.NewSource(opts.Seed))
	var sample []graph.NodeID
	timeIt("sampling.WeightedSampleInto", "sampling.weighted_sample_us", func() {
		sample = sampling.WeightedSampleInto(w.Sample[:0], gq, w.Probs, size, req.Query, rng, w)
	})
	w.Sample = sample

	// The maximal structure inside the induced sample, then the maintenance
	// structure SEA peels candidates from — for k-truss this second step
	// (edge index, supports) is where most of S1 goes.
	sub, orig := graph.InducedStructureOf(g, sample, &w.Sub)
	if at, ok := slices.BinarySearch(orig, req.Query); ok {
		subQ := graph.NodeID(at)
		var members []graph.NodeID
		if opts.Model == sea.KTruss {
			timeIt("truss.MaximalConnectedKTrussInto", "truss.maximal_us", func() {
				members = truss.MaximalConnectedKTrussInto(w.Members[:0], sub, subQ, opts.K, w)
			})
			if members != nil {
				timeIt("truss.NewSub", "truss.newsub_us", func() { truss.NewSub(sub, subQ, opts.K, members) })
			}
		} else {
			timeIt("kcore.MaximalConnectedKCoreInto", "kcore.maximal_us", func() {
				members = kcore.MaximalConnectedKCoreInto(w.Members[:0], sub, subQ, opts.K, w)
			})
			if members != nil {
				timeIt("kcore.NewSub", "kcore.newsub_us", func() { kcore.NewSub(sub, subQ, opts.K, members) })
			}
		}
	}

	values := make([]float64, 0, len(res.Community))
	for _, v := range res.Community {
		if v != req.Query {
			values = append(values, dist[v])
		}
	}
	if len(values) > 0 {
		timeIt("stats.BLB", "stats.blb_us", func() { stats.BLB(values, opts.BLB, rng) })
	}
}

func (tr *tracer) descendMutation(cl *client, i int64, o *op, root string, d1 float64) {
	ct := cl.tr
	t := time.Now()
	res, err := tr.twin2.cat.Mutate(tr.e.w.dataset, o.deltas)
	took2 := time.Since(t)
	if err != nil {
		cl.fail("depth 2 %s: %v", o.body, err)
		return
	}
	ct.span(i, 2, "catalog.Mutate", root, t.Sub(tr.t0), took2)
	d2 := float64(took2.Nanoseconds())
	ct.layers.add("catalog.http_self_us", us(d1-d2))
	ct.layers.add("catalog.mutate_us", us(d2))
	ct.layers.add("commit.queue_wait_us", us(float64(res.QueueNS)))
	ct.layers.add("commit.batch_size_mean", float64(res.BatchSize))
	ct.layers.add("engine.invalidate_us", us(float64(res.InvalidateNS)))

	groups := [][]mutate.Delta{o.deltas}
	tr.mu3.Lock()
	t = time.Now()
	_, _, err = tr.eng3.ApplyGroups(groups)
	tookApply := time.Since(t)
	if err != nil {
		tr.mu3.Unlock()
		cl.fail("depth 3 apply %s: %v", o.body, err)
		return
	}
	ct.span(i, 3, "engine.ApplyGroups", "catalog.Mutate", t.Sub(tr.t0), tookApply)
	t = time.Now()
	_, err = tr.journal3.AppendGroups(groups)
	tookAppend := time.Since(t)
	fsync := tr.journal3.LastSyncNS()
	tr.mu3.Unlock()
	if err != nil {
		cl.fail("depth 3 journal %s: %v", o.body, err)
		return
	}
	ct.span(i, 3, "store.Journal.AppendGroups", "catalog.Mutate", t.Sub(tr.t0), tookAppend)
	apply, appendNS := float64(tookApply.Nanoseconds()), float64(tookAppend.Nanoseconds())
	ct.layers.add("engine.apply_"+kindNames[o.kind]+"_us", us(apply))
	ct.layers.add("store.journal_append_us", us(appendNS))
	ct.layers.add("store.journal_fsync_us", us(float64(fsync)))
	covered := max(0, d1-d2) + max(0, d2-apply-appendNS) + apply + appendNS
	ct.layers.add("harness.trace_coverage_frac", min(1, covered/d1))
}

// wholeGraph times the primitives that run over the whole graph — the ones
// index build and set-up pay for — three times each and keeps the median.
func wholeGraph(e *env, snapshot string) (map[string]float64, error) {
	g := e.ds.Graph
	out := map[string]float64{}
	medianOf := func(fn func()) float64 {
		var times []float64
		for i := 0; i < 3; i++ {
			t := time.Now()
			fn()
			times = append(times, float64(time.Since(t).Nanoseconds()))
		}
		return median(times)
	}
	out["kcore.decompose_us"] = us(medianOf(func() { kcore.Decompose(g) }))
	out["truss.decompose_us"] = us(medianOf(func() { truss.Decompose(g) }))

	sweep := func(a graph.Adjacency) float64 {
		var buf []graph.NodeID
		sum := 0
		ns := medianOf(func() {
			for v := graph.NodeID(0); int(v) < a.NumNodes(); v++ {
				for _, u := range a.NeighborsInto(&buf, v) {
					sum += int(u)
				}
			}
		})
		sweepSink = sum
		return ns / float64(a.NumEdges())
	}
	out["graph.sweep_heap_ns_per_edge"] = sweep(g)
	m, err := store.MountGraphFile(snapshot)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	out["graph.sweep_mapped_ns_per_edge"] = sweep(m.Store)
	return out, nil
}

// sweepSink keeps the sweep's result alive so the compiler cannot drop the
// loop.
var sweepSink int

// writeTrace writes the kept spans to <out>/<workload>.trace.json.
func writeTrace(outDir string, w *workload, seed int64, ct *clientTrace) (string, error) {
	slices.SortFunc(ct.spans, func(a, b span) int {
		if a.Op != b.Op {
			return int(a.Op - b.Op)
		}
		return a.Depth - b.Depth
	})
	path := filepath.Join(outDir, w.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Dropped  int    `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{w.name, seed, ct.dropped, ct.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
