// Package engine provides a long-lived, concurrency-safe serving layer over
// an attributed graph. Where the library-level query.Execute pays the full
// per-query cost — metric construction, structural decompositions — on
// every call, an Engine precomputes the per-graph state once and shares it
// across queries:
//
//   - the attribute Metric (min/max normalizer scan) is built at construction;
//   - the core and truss-level decompositions are built (or adopted from a
//     snapshot) at construction, and both serve as a shared admission
//     index: a query node whose coreness (or incident trussness) is below k
//     provably has no community, so the engine answers ErrNoCommunity
//     without running a search — for every method;
//   - full Outcomes are held in a sharded LRU cache, keyed by the canonical
//     query.Request;
//   - concurrent identical queries are coalesced single-flight style, so the
//     work happens once while every caller gets the answer.
//
// Every request is one query.Request, whatever the method; Engine.Query is
// the one entry point and Engine.Batch (Engine.Answer over caller-owned
// items) its worker-pool form.
// Requests carry contexts all the way into the search loops: a per-request
// deadline (or a client disconnect) genuinely stops the computation once no
// caller is waiting on it, freeing its concurrency slot. Every request
// yields flat, CSV-friendly per-stage timing metrics (QueryMetrics) and the
// engine aggregates global counters (Stats).
//
// The served graph is live: Engine.Apply folds a batch of mutate.Deltas
// (edge/node/attribute mutations) into a fresh graph + incrementally
// maintained indexes and publishes them atomically, invalidating only the
// cache entries whose query node falls in the mutation's affected region
// (see mutate.go). Queries load one state pointer at entry, so a request
// always runs against one consistent snapshot of the graph and its indexes.
//
// Nothing is kept per query node, and nothing of size |V| is built per
// query: on a result-cache miss query.Run's solver computes f(·,q) itself,
// on the request's goroutine — SEA at the nodes it touches, dropping the
// values with the search (the paper's method is index-free); only the exact
// solver fills the whole vector. Goroutines run between requests (Batch
// workers, the single-flight), never inside one.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sea"
)

// ErrQueryOutOfRange is returned (wrapped) when the query node ID is not a
// node of the engine's graph. It wraps cserr.ErrInvalidRequest.
var ErrQueryOutOfRange = fmt.Errorf("%w: query node outside the graph", cserr.ErrInvalidRequest)

// Config parameterizes an Engine. The zero value is not valid; start from
// DefaultConfig.
type Config struct {
	// Gamma is the attribute-metric balance factor in [0,1] (see attr.Metric).
	Gamma float64
	// ResultCacheSize bounds the number of cached Request → Outcome entries.
	// ≤0 selects the default.
	ResultCacheSize int
	// MaxConcurrent caps the number of searches executing at once; further
	// computations queue. It is also the width of Batch's pool. ≤0 selects
	// 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxInFlight, when positive, bounds admission: at most this many
	// cache-miss computations may be in flight (executing or queued on the
	// MaxConcurrent slots) at once, and requests beyond the bound are shed
	// immediately with cserr.ErrOverloaded (HTTP 429) instead of queueing —
	// shed-before-queue keeps the queue, and with it p99, bounded under
	// overload. Cache hits, admission-index rejects and coalesced joins are
	// never shed. Set it above MaxConcurrent to allow a bounded queue;
	// 0 disables shedding.
	MaxInFlight int
	// RequestTimeout, when positive, bounds every request (Query and
	// each Batch item) that does not already carry an earlier deadline. The
	// deadline cancels the underlying search, not just the wait.
	RequestTimeout time.Duration
	// SlowQuery, when positive, logs one structured JSON line (to
	// SlowQueryLog, default stderr) for every request whose total latency
	// meets or exceeds it.
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query lines; nil means os.Stderr.
	SlowQueryLog io.Writer
}

// DefaultConfig returns a serving configuration suitable for mid-size graphs.
func DefaultConfig() Config {
	return Config{
		Gamma:           0.5,
		ResultCacheSize: 4096,
	}
}

// requestHash is the result cache's one hash of a canonical Request: it picks
// the shard and keys the shard's map, and the shard tells requests sharing
// it apart by ==. It folds every field but Graph (which the engine clears
// before a lookup) two words at a time through a 64×64→128-bit multiply.
func requestHash(r *query.Request) uint64 {
	var noRefine uint64
	if r.NoRefine {
		noRefine = 1
	}
	h := mix(uint64(r.Query), uint64(r.Method)<<16|uint64(r.Model)<<1|noRefine)
	h = mix(h^uint64(r.K), uint64(r.Seed))
	h = mix(h^uint64(r.SizeLo), uint64(r.SizeHi))
	h = mix(h^uint64(r.MaxStates), uint64(r.MaxRounds))
	h = mix(h^math.Float64bits(r.ErrorBound), math.Float64bits(r.Confidence))
	h = mix(h^math.Float64bits(r.Lambda), math.Float64bits(r.Eps))
	return mix(h, math.Float64bits(r.Beta))
}

// mix folds two words into one: the high and low halves of their product,
// each offset by a constant so that a zero word still stirs the other.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a^0xa0761d6478bd642f, b^0xe7037ed1a0b428db)
	return hi ^ lo
}

// searchOutcome is the shared product of one coalesced computation.
type searchOutcome struct {
	out      *query.Outcome
	err      error
	shed     bool // rejected by MaxInFlight admission (err wraps ErrOverloaded)
	searchNS int64
}

// engState is the engine's per-graph serving state: the graph and every
// shared structure derived from it, published as one unit through an atomic
// pointer so a request never mixes two generations. Apply builds a new
// engState per mutation batch; the old one keeps serving in-flight requests.
// Every field is set before the state is published and never written after.
type engState struct {
	g       graph.Store
	metric  *attr.Metric
	core    []int32 // coreness per node
	truss   []int32 // node trussness: max trussness over incident edges
	version uint64  // increments once per applied mutation batch
}

// Engine is a concurrency-safe query-serving layer over one live graph.
// Returned Outcomes and their Community slices are shared across callers
// and must be treated as immutable.
type Engine struct {
	cfg Config

	// st is the current serving state; every request loads it exactly once.
	st atomic.Pointer[engState]
	// epoch counts applied mutation batches; it always equals the current
	// state's version. Cache fills check it (under pubMu.RLock) against the
	// version of the state they computed on, so a computation that started
	// against a pre-mutation state can never re-insert a stale entry after
	// that mutation's scoped sweep.
	epoch atomic.Uint64
	// pubMu orders cache fills against the epoch bump: Apply takes the
	// write side for the bump alone, so every fill either completes before
	// the bump (and is visible to the sweep) or observes the new epoch and
	// skips itself.
	pubMu sync.RWMutex

	// mu serializes mutation batches; etruss is the per-edge trussness
	// table maintained incrementally under it (nil until the first mutation
	// seeds it), and sweep is the scoped invalidation's scratch.
	mu     sync.Mutex
	etruss map[mutate.Edge]int32
	sweep  sweepScratch

	results *shardedLRU[query.Request, *query.Outcome]
	flight  flightGroup[flightKey, *searchOutcome]

	sem      chan struct{} // bounds concurrently executing searches
	inflight atomic.Int64  // computations executing or queued (MaxInFlight admission)

	ctr counters
	lat [NumStages]obs.Histogram
	// latencySnaps counts Latency() calls (see LatencySnapshots).
	latencySnaps atomic.Uint64

	// name attributes spans, slow-query lines and aggregated metrics to a
	// dataset; the catalog sets it at mount time (see SetName).
	name atomic.Pointer[string]
	// trace holds the most recent traceSpans request spans.
	trace *obs.Ring[Span]
}

// flightKey scopes result coalescing to one graph generation, so a request
// arriving after a mutation never joins a computation on the old graph.
type flightKey struct {
	req     query.Request
	version uint64
}

// New builds an Engine over g — any immutable graph.Store backing: a heap
// CSR or a zero-copy mapped snapshot — precomputing
// the attribute metric and the core and truss decompositions. The engine
// serves g until a mutation batch replaces it; the backing itself is never
// written.
func New(g graph.Store, cfg Config) (*Engine, error) { return NewFromIndex(g, cfg, nil) }

// newEngine applies config defaults and assembles the result cache around
// the complete serving state NewFromIndex built or adopted.
func newEngine(cfg Config, st *engState) *Engine {
	def := DefaultConfig()
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = def.ResultCacheSize
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		trace: obs.NewRing[Span](traceSpans),
	}
	e.st.Store(st)
	e.results = newShardedLRU[query.Request, *query.Outcome](
		cfg.ResultCacheSize, cacheShards, func(r query.Request) uint64 { return requestHash(&r) })
	return e
}

// Graph returns the graph backing the engine currently serves. Across a
// concurrent Apply, successive calls may return different (individually
// immutable) backings; hold the returned value for one consistent view.
func (e *Engine) Graph() graph.Store { return e.st.Load().g }

// Metric returns the shared attribute metric of the current graph.
func (e *Engine) Metric() *attr.Metric { return e.st.Load().metric }

// Coreness returns the precomputed coreness of q on the current graph.
func (e *Engine) Coreness(q graph.NodeID) int32 { return e.st.Load().core[q] }

// Version returns the graph generation: 0 for the mounted graph, +1 per
// applied mutation batch.
func (e *Engine) Version() uint64 { return e.st.Load().version }

// Query runs one community-search request with whatever method it names,
// serving from the result cache, the shared admission index, or a (possibly
// coalesced) execution. See QueryWithMetrics for per-stage timings.
func (e *Engine) Query(ctx context.Context, req query.Request) (*query.Outcome, error) {
	out, _, err := e.QueryWithMetrics(ctx, req)
	return out, err
}

// QueryWithMetrics is Query returning per-stage timing metrics alongside
// the outcome. The metrics row is valid on error paths too (Err is set).
func (e *Engine) QueryWithMetrics(ctx context.Context, req query.Request) (*query.Outcome, QueryMetrics, error) {
	var qm QueryMetrics
	out, err := e.answer(ctx, &req, false, &qm)
	return out, qm, err
}

// errUncached is answer's report that a cachedOnly request is not in the
// result cache.
var errUncached = errors.New("engine: not cached")

// answer is QueryWithMetrics writing the metrics row into qm. With
// cachedOnly set, a request the result cache does not hold returns
// errUncached and leaves nothing behind — no counter, histogram sample or
// span — so Answer can answer what is cached inline and hand the rest to
// the full path with every item still counted exactly once.
func (e *Engine) answer(ctx context.Context, given *query.Request, cachedOnly bool, qm *QueryMetrics) (*query.Outcome, error) {
	t0 := time.Now()
	req := given.WithDefaults()
	// Graph is routing metadata for multi-dataset servers; this engine IS
	// the routed-to graph, so drop it before it can split cache keys.
	req.Graph = ""
	// Cache first, validation after: only validated requests ever land in
	// the cache, so a hit proves validity and the hot path skips the
	// Validate/Options projection entirely; anything malformed misses and
	// is rejected in miss before reaching the indexes. The lookup counts
	// the request: Stats.Queries is the cache's hits plus misses.
	out, hit := e.results.lookup(&req, requestHash(&req), !cachedOnly)
	if cachedOnly && !hit {
		return nil, errUncached
	}
	*qm = QueryMetrics{Query: int64(req.Query), K: req.K, Model: req.Model.String(), Method: req.Method.String(), ResultHit: hit}
	var err error
	if !hit {
		out, err = e.miss(ctx, req, qm)
	}
	qm.TotalNS = time.Since(t0).Nanoseconds()
	if err != nil {
		qm.Err = err.Error()
		e.ctr.errors.Add(1)
	}
	e.recordQuery(RequestIDFromContext(ctx), t0, qm)
	return out, err
}

// miss answers a request the result cache does not hold: validation, the
// admission index, then a (possibly coalesced) execution.
func (e *Engine) miss(ctx context.Context, req query.Request, qm *QueryMetrics) (*query.Outcome, error) {
	// One state load per request: the graph, the metric and the admission
	// indexes all come from this generation even if a mutation lands
	// mid-request.
	st := e.st.Load()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if int(req.Query) < 0 || int(req.Query) >= st.g.NumNodes() {
		return nil, fmt.Errorf("%w: node %d, graph [0,%d)", ErrQueryOutOfRange, req.Query, st.g.NumNodes())
	}
	if e.cfg.RequestTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.RequestTimeout)
			defer cancel()
		}
	}

	// Admission: the shared decomposition proves absence without a search.
	// Every registered method returns a connected k-core or k-truss around
	// the query node, so the check is method-agnostic.
	ti := time.Now()
	admitted := admit(st, req.Query, req.K, req.Model)
	qm.IndexNS = time.Since(ti).Nanoseconds()
	if !admitted {
		qm.IndexHit = true
		e.ctr.indexRejects.Add(1)
		return nil, cserr.ErrNoCommunity
	}

	out, err, joined := e.flight.do(ctx, flightKey{req, st.version}, func(cctx context.Context) (*searchOutcome, error) {
		return e.compute(cctx, st, req), nil
	})
	if joined {
		qm.Coalesced = true
		e.ctr.coalesced.Add(1)
	}
	if err != nil {
		return nil, err // context expired while waiting
	}
	qm.SearchNS = out.searchNS
	qm.Shed = out.shed
	return out.out, out.err
}

// compute performs the cache-miss path of one request under the concurrency
// cap, against one fixed state generation. ctx is the flight's computation
// context: it is cancelled when every caller has abandoned the request,
// which stops the search loops and frees the slot. Only error-free outcomes
// land in the cache, and only when no mutation intervened (fill fence).
func (e *Engine) compute(ctx context.Context, st *engState, req query.Request) *searchOutcome {
	out := &searchOutcome{}
	// Shed-before-queue: when the in-flight bound is hit, fail this request
	// now rather than letting it queue on the sem — under sustained overload
	// a queue only converts load into latency.
	if max := int64(e.cfg.MaxInFlight); max > 0 {
		if e.inflight.Add(1) > max {
			e.inflight.Add(-1)
			e.ctr.shed.Add(1)
			out.shed = true
			out.err = fmt.Errorf("%w: %d computations in flight", cserr.ErrOverloaded, max)
			return out
		}
		defer e.inflight.Add(-1)
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		out.err = ctx.Err()
		return out
	}
	defer func() { <-e.sem }()
	// "engine.search" is the fault-injection site for a slow or failing
	// search execution; it holds a concurrency slot while it sleeps, so an
	// armed delay is also the deterministic way to fill MaxInFlight in tests.
	if err := faults.Check("engine.search"); err != nil {
		out.err = err
		return out
	}

	ts := time.Now()
	e.ctr.searchRuns.Add(1)
	res, err := query.Run(ctx, st.g, st.metric, req)
	out.searchNS = time.Since(ts).Nanoseconds()
	out.out, out.err = res, err
	if err == nil {
		e.fill(st, req, res)
	}
	return out
}

// fill caches res, computed for req against st, unless a mutation has been
// applied since st was current. The read-lock pairs with Apply's
// write-locked epoch bump: a fill is either fully visible to the mutation's
// scoped sweep or skips itself, so stale entries can never outlive the sweep.
func (e *Engine) fill(st *engState, req query.Request, res *query.Outcome) {
	e.pubMu.RLock()
	if e.epoch.Load() == st.version {
		e.results.put(req, res)
	}
	e.pubMu.RUnlock()
}

// admit reports whether a community under the structural model can exist
// around q, answered from the shared decompositions. A false return is
// definitive: any method would return ErrNoCommunity. (A k-core or k-truss
// of any induced subgraph is one of g itself, so a full-graph rejection
// covers every sample too.)
func admit(st *engState, q graph.NodeID, k int, model sea.Model) bool {
	switch model {
	case sea.KTruss:
		return int(st.truss[q]) >= k
	default:
		return int(st.core[q]) >= k
	}
}
