package sea

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/truss"
	"repro/internal/ws"
)

// testDataset builds a small planted-community graph shared by the tests.
func testDataset(t testing.TB) *dataset.Generated {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "test", Nodes: 400, MinCommunity: 12, MaxCommunity: 28,
		IntraDegree: 8, InterDegree: 0.8,
		TokensPerNode: 4, PoolSize: 5, Vocab: 80, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// search runs SEA with f(·,q) evaluated from m on demand, the engine's path.
func search(g graph.CSR, m *attr.Metric, q graph.NodeID, opts Options) (*Result, error) {
	return SearchContext(context.Background(), g, m, q, opts)
}

func TestOptionsValidate(t *testing.T) {
	good := DefaultOptions()
	if err := good.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.K = 0 },
		func(o *Options) { o.ErrorBound = 0 },
		func(o *Options) { o.ErrorBound = 1 },
		func(o *Options) { o.Confidence = 1 },
		func(o *Options) { o.Lambda = 0 },
		func(o *Options) { o.Lambda = 1.5 },
		func(o *Options) { o.Eps = 0 },
		func(o *Options) { o.Beta = 0 },
		func(o *Options) { o.SizeHi = 5; o.SizeLo = 9 },
		func(o *Options) { o.SizeLo = 12 },
		func(o *Options) { o.MaxRounds = 0 },
		func(o *Options) { o.BLB.Scale = 0.2 },
	}
	for i, mutate := range bad {
		o := DefaultOptions()
		mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestModelString(t *testing.T) {
	if KCore.String() != "k-core" || KTruss.String() != "k-truss" {
		t.Error("Model.String wrong")
	}
	if Model(9).String() == "" {
		t.Error("unknown model String empty")
	}
}

func TestSearchReturnsValidCore(t *testing.T) {
	d := testDataset(t)
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.K = 4
	for _, q := range d.QueryNodes(5, opts.K, 7) {
		res, err := search(d.Graph, m, q, opts)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if !containsNode(res.Community, q) {
			t.Errorf("q=%d not in community", q)
		}
		if !kcore.InKCoreSet(d.Graph, res.Community, opts.K) {
			t.Errorf("q=%d: community is not a %d-core", q, opts.K)
		}
		if res.Delta < 0 || res.Delta > 1 {
			t.Errorf("q=%d: δ = %v out of range", q, res.Delta)
		}
		if len(res.Rounds) == 0 {
			t.Errorf("q=%d: no round trace", q)
		}
	}
}

func TestSearchTrussModel(t *testing.T) {
	d := testDataset(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	opts := DefaultOptions()
	opts.K = 4
	opts.Model = KTruss
	found := 0
	for _, q := range d.QueryNodes(5, opts.K, 13) {
		res, err := search(d.Graph, m, q, opts)
		if errors.Is(err, ErrNoCommunity) {
			continue
		}
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		found++
		if !containsNode(res.Community, q) {
			t.Errorf("q=%d not in community", q)
		}
		if !truss.InKTrussSet(d.Graph, res.Community, opts.K) {
			t.Errorf("q=%d: community is not a %d-truss", q, opts.K)
		}
	}
	if found == 0 {
		t.Error("no truss community found for any query")
	}
}

// TestLoopStopsWhenSampleCannotGrow: q's component is 8 nodes of a larger
// graph, so within a few rounds the sample is all of Gq and S3 has nothing
// left to draw. Theorem 11 is out of reach at e = 1e-4 (the values are
// distinct, so the MoE is not 0), and the loop used to run that same round
// until MaxRounds.
func TestLoopStopsWhenSampleCannotGrow(t *testing.T) {
	const size = 8
	b := graph.NewBuilder(2*size, 0)
	dist := make([]float64, 2*size)
	for c := 0; c < 2*size; c += size {
		for i := c; i < c+size; i++ {
			dist[i] = 0.05 * float64(i)
			for j := i + 1; j < c+size; j++ {
				b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			}
		}
	}
	g := b.MustBuild()
	valid := map[Model]func(graph.Adjacency, []graph.NodeID, int) bool{KCore: kcore.InKCoreSet, KTruss: truss.InKTrussSet}
	for _, model := range []Model{KCore, KTruss} {
		opts := DefaultOptions()
		opts.Model, opts.K = model, 3
		opts.ErrorBound = 1e-4
		opts.MaxRounds = 40
		res, err := SearchWithDistContext(context.Background(), g, dist, 0, opts)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		if res.Satisfied || res.CI.MoE == 0 {
			t.Errorf("%v: satisfied=%v MoE=%v; the test needs Theorem 11 out of reach", model, res.Satisfied, res.CI.MoE)
		}
		if len(res.Rounds) > 6 {
			t.Errorf("%v: %d rounds over an %d-node component", model, len(res.Rounds), size)
		}
		for i, r := range res.Rounds {
			if (r.DeltaS == 0) != (i == 0) {
				t.Errorf("%v: round %d drew %d nodes", model, r.Round, r.DeltaS)
			}
		}
		if res.SampleSize != size || res.GqSize != size {
			t.Errorf("%v: |S|=%d |Gq|=%d, want q's whole component (%d)", model, res.SampleSize, res.GqSize, size)
		}
		if !containsNode(res.Community, 0) || !valid[model](g, res.Community, opts.K) {
			t.Errorf("%v: %v is not a valid community of q at k=%d", model, res.Community, opts.K)
		}
	}
}

func TestSearchSizeBounded(t *testing.T) {
	d := testDataset(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	opts := DefaultOptions()
	opts.K = 4
	opts.SizeLo, opts.SizeHi = 8, 14
	hit := 0
	for _, q := range d.QueryNodes(6, opts.K, 23) {
		res, err := search(d.Graph, m, q, opts)
		if errors.Is(err, ErrNoCommunity) {
			continue
		}
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		hit++
		if len(res.Community) < opts.SizeLo || len(res.Community) > opts.SizeHi {
			t.Errorf("q=%d: |community| = %d outside [%d,%d]", q, len(res.Community), opts.SizeLo, opts.SizeHi)
		}
		if !kcore.InKCoreSet(d.Graph, res.Community, opts.K) {
			t.Errorf("q=%d: not a %d-core", q, opts.K)
		}
	}
	if hit == 0 {
		t.Error("size-bounded search never succeeded")
	}
}

func TestSearchDeterministicWithSeed(t *testing.T) {
	d := testDataset(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	opts := DefaultOptions()
	q := d.QueryNodes(1, opts.K, 3)[0]
	r1, err := search(d.Graph, m, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := search(d.Graph, m, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Delta != r2.Delta || len(r1.Community) != len(r2.Community) {
		t.Errorf("same seed, different results: δ %v vs %v, size %d vs %d",
			r1.Delta, r2.Delta, len(r1.Community), len(r2.Community))
	}
}

// TestRelativeErrorBound is the headline guarantee check: on graphs small
// enough for the exact algorithm, SEA's δ* must be within the error bound of
// the exact δ in the vast majority of runs (the guarantee is probabilistic
// at confidence 1−α).
func TestRelativeErrorBound(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "tiny", Nodes: 150, MinCommunity: 10, MaxCommunity: 18,
		IntraDegree: 7, InterDegree: 0.3,
		TokensPerNode: 4, PoolSize: 5, Vocab: 50, NoiseProb: 0.1,
		NumDim: 2, NumSigma: 0.05, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := attr.NewMetric(d.Graph, 0.5)
	opts := DefaultOptions()
	opts.K = 6
	opts.ErrorBound = 0.05
	within := 0
	total := 0
	for _, q := range d.QueryNodes(6, opts.K, 31) {
		dist := m.QueryDist(q)
		// A budgeted exact search: with all prunings and these community
		// sizes the optimum is reached well within the budget.
		ex, err := exact.SearchContext(context.Background(), d.Graph, q, opts.K, dist, exact.Config{
			PruneDuplicates: true, PruneUnnecessary: true, PruneUnpromising: true,
			MaxStates: 60_000,
		})
		if errors.Is(err, exact.ErrNoCommunity) {
			continue
		}
		res, err := SearchWithDistContext(context.Background(), d.Graph, dist, q, opts)
		if errors.Is(err, ErrNoCommunity) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		total++
		if ex.Delta == 0 {
			continue
		}
		// The exact reference is budgeted, so SEA beating it counts as
		// within-bound too.
		rel := (res.Delta - ex.Delta) / ex.Delta
		if rel <= opts.ErrorBound+1e-9 {
			within++
		}
	}
	if total == 0 {
		t.Fatal("no query produced both exact and approximate results")
	}
	if within*10 < total*6 { // the guarantee is probabilistic at 1−α
		t.Errorf("only %d/%d runs within the error bound", within, total)
	}
}

func TestStepTimesAndSampleSizes(t *testing.T) {
	d := testDataset(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	opts := DefaultOptions()
	q := d.QueryNodes(1, opts.K, 5)[0]
	res, err := search(d.Graph, m, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.GqSize <= 0 || res.SampleSize <= 0 {
		t.Errorf("sizes not populated: Gq=%d S=%d", res.GqSize, res.SampleSize)
	}
	if res.Steps.Sampling <= 0 {
		t.Error("sampling time not recorded")
	}
}

func TestPropertyCommunityValidity(t *testing.T) {
	d := testDataset(t)
	m, _ := attr.NewMetric(d.Graph, 0.5)
	dist := map[graph.NodeID][]float64{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := DefaultOptions()
		opts.K = 3 + rng.Intn(4)
		opts.Seed = rng.Int63()
		opts.ErrorBound = 0.01 + rng.Float64()*0.2
		q := d.QueryNodes(1, opts.K, rng.Int63())[0]
		dv, ok := dist[q]
		if !ok {
			dv = m.QueryDist(q)
			dist[q] = dv
		}
		res, err := SearchWithDistContext(context.Background(), d.Graph, dv, q, opts)
		if errors.Is(err, ErrNoCommunity) {
			return true
		}
		if err != nil {
			return false
		}
		if !containsNode(res.Community, q) {
			return false
		}
		if !kcore.InKCoreSet(d.Graph, res.Community, opts.K) {
			return false
		}
		// δ must equal the recomputed attribute distance.
		return math.Abs(res.Delta-attr.Delta(dv, res.Community, q)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func containsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ringLattice builds the slow-search workload shared by the cancellation
// tests: a circulant graph where every node links to its d successors, so
// the whole graph is one big connected k-core whose greedy peeling walks
// thousands of iterations.
func ringLattice(t testing.TB, n, d int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		for j := 1; j <= d; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+j)%n))
		}
	}
	return b.MustBuild()
}

// slowOpts makes a single SEA round walk the full greedy trajectory of the
// whole-graph community: sample everything, demand an unreachable error
// bound. On the 6000-node ring lattice this takes hundreds of milliseconds.
func slowOpts() Options {
	opts := DefaultOptions()
	opts.K = 4
	opts.Lambda = 1
	opts.Eps = 0.01
	opts.ErrorBound = 0.0001
	opts.MaxRounds = 1
	return opts
}

// TestSearchContextCancellation proves the acceptance criterion for SEA: a
// context cancelled mid-search returns promptly (well under 50ms) with the
// best candidate found so far and an error wrapping the context's error,
// under either model.
func TestSearchContextCancellation(t *testing.T) {
	const n = 6000
	g := ringLattice(t, n, 6)
	rng := rand.New(rand.NewSource(3))
	dist := make([]float64, n)
	for i := 1; i < n; i++ {
		dist[i] = rng.Float64()
	}
	for _, model := range []Model{KCore, KTruss} {
		ctx, cancel := context.WithCancel(context.Background())
		type answer struct {
			res *Result
			err error
		}
		done := make(chan answer, 1)
		opts := slowOpts()
		opts.Model = model
		go func() {
			res, err := SearchWithDistContext(ctx, g, dist, 0, opts)
			done <- answer{res, err}
		}()
		time.Sleep(30 * time.Millisecond) // mid-peeling on this workload
		cancel()
		t0 := time.Now()
		var got answer
		select {
		case got = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: cancelled SEA search did not return", model)
		}
		if el, budget := time.Since(t0), cancelBudgetScale*50*time.Millisecond; el > budget {
			t.Fatalf("%v: cancelled search took %v to return, want < %v", model, el, budget)
		}
		if !errors.Is(got.err, context.Canceled) {
			t.Fatalf("%v: want error wrapping context.Canceled, got %v", model, got.err)
		}
		if got.res != nil && len(got.res.Community) == 0 {
			t.Fatalf("%v: non-nil interrupted result must carry a community", model)
		}
	}
}

// TestSearchContextAlreadyCancelled pins the fast path: a context that is
// already dead never starts sampling.
func TestSearchContextAlreadyCancelled(t *testing.T) {
	d := testDataset(t)
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.K = 2
	q := d.QueryNodes(1, 2, 5)[0]
	if _, err := SearchWithDistContext(ctx, d.Graph, m.QueryDist(q), q, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestResultDoesNotPinTheSearch: a *Result is what the engine caches (4 096
// of them), so holding one must not hold the run that produced it — above
// all not its O(n) distance vector.
func TestResultDoesNotPinTheSearch(t *testing.T) {
	const n, held = 1 << 17, 32 // 1 MiB of distances per search
	b := graph.NewBuilder(n, 0)
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.MustBuild()
	opts := DefaultOptions()
	opts.K = 3

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	search := func(seed int64) *Result {
		dist := make([]float64, n)
		for v := 1; v < 8; v++ {
			dist[v] = 0.1 * float64(v)
		}
		opts.Seed = seed
		res, err := SearchWithDistContext(context.Background(), g, dist, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// One search first: the workspace it grows to n nodes goes back on the
	// free list and stays resident, so it belongs in the baseline.
	search(held + 1)
	before := heap()
	results := make([]*Result, held)
	for i := range results {
		results[i] = search(int64(i + 1))
	}
	perResult := (int64(heap()) - int64(before)) / held
	if perResult > n/8 { // 1/64 of the 8·n bytes one pinned dist costs
		t.Fatalf("each held Result retains %d B; a pinned distance vector is %d B", perResult, 8*n)
	}
	runtime.KeepAlive(results)
}

// countingCSR counts the neighbour lists a search reads.
type countingCSR struct {
	graph.CSR
	reads int
}

func (c *countingCSR) NeighborsInto(buf *[]graph.NodeID, v graph.NodeID) []graph.NodeID {
	c.reads++
	return c.CSR.NeighborsInto(buf, v)
}

// TestLateRoundsReadWhatTheyDrew is the gate on per-round cost that does not
// read the clock. On this search the sample doubles twice and then five
// rounds add 74 nodes each to ~5 700. Gq's expansion reads one list per node
// it pops; a k-core round reads what q reaches through sampled nodes of
// sample-degree ≥ k, and their sampled neighbours: tens of nodes. So
// |Gq| + |S|/4 holds it (7 356 reads, limit 8 099). A per-round pass over
// the sample does not: on a search of this shape, keeping the whole sample's
// core by insertion read 17 946, within only the older limit of
// 2·(|Gq| + |S|); inducing the sample every round, 43 423.
func TestLateRoundsReadWhatTheyDrew(t *testing.T) {
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const q = 7079
	opts := DefaultOptions()
	opts.K = 6
	opts.Seed = 6
	g := &countingCSR{CSR: d.Graph}
	res, err := SearchWithDistContext(context.Background(), g, m.QueryDist(q), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != opts.MaxRounds {
		t.Fatalf("%d rounds, the case needs all %d", len(res.Rounds), opts.MaxRounds)
	}
	for _, r := range res.Rounds[len(res.Rounds)-4:] {
		if r.DeltaS < 10 || r.DeltaS > 99 {
			t.Fatalf("round %d drew %d nodes; the case needs late rounds that draw tens", r.Round, r.DeltaS)
		}
	}
	if limit := 2 * (res.GqSize + res.SampleSize); g.reads > limit {
		t.Errorf("%d neighbour lists read for |Gq| = %d, |S| = %d over %d rounds; limit %d",
			g.reads, res.GqSize, res.SampleSize, len(res.Rounds), limit)
	}
	if limit := res.GqSize + res.SampleSize/4; g.reads > limit {
		t.Errorf("%d neighbour lists read for |Gq| = %d, |S| = %d over %d rounds; the k-core rounds' limit is %d",
			g.reads, res.GqSize, res.SampleSize, len(res.Rounds), limit)
	}
}

// TestTrussRoundReadsWhatQReaches is the same gate for the k-truss round. By
// the last round of this search q lies in the sample's giant 4-core
// component of over 5 000 nodes, whose truss around q is a few dozen. Gq's
// expansion reads one list per node it pops. After it, a k-truss round adds
// what it drew to the sample's membership, reading nothing, and the
// extraction reads what q reaches over edges closing k−2 triangles, so
// |Gq| + |S|/8 holds the search (6 992 reads for |Gq| = |S| = 6 673).
// Keeping the sample's 4-core by insertion reads every inserted node's list
// and walks the repair from it (20 668 reads); walking q's core component
// and indexing all of it reads it three times over (37 786).
func TestTrussRoundReadsWhatQReaches(t *testing.T) {
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	const q = 4414
	ctx := context.Background()
	opts := DefaultOptions()
	opts.K, opts.Model, opts.Seed = 5, KTruss, 1_000_007
	g := &countingCSR{CSR: d.Graph}
	s := newRun(ctx, g, q, opts)
	defer s.w.Release()
	s.f = m.View(q, &s.w.Dist)
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	reads := g.reads

	// The precondition, from the final sample: its 4-core, from scratch.
	w := ws.Get()
	defer w.Release()
	ind, orig := graph.InducedStructureOf(d.Graph, s.w.Sample, &w.Sub)
	if comp := kcore.MaximalConnectedKCoreInto(nil, ind, graph.NodeID(slices.Index(orig, q)), opts.K-1, w); len(comp) < 5000 {
		t.Fatalf("q's component of the final sample's 4-core has %d nodes; the case needs the giant one", len(comp))
	}
	if limit := res.GqSize + res.SampleSize/8; reads > limit {
		t.Errorf("%d neighbour lists read for |Gq| = %d, |S| = %d over %d rounds; limit %d",
			reads, res.GqSize, res.SampleSize, len(res.Rounds), limit)
	}
}
