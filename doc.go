// Package sea is a Go implementation of "Scalable Community Search with
// Accuracy Guarantee on Attributed Graphs" (ICDE 2024): community search
// over attributed graphs that returns, together with each community, a
// confidence interval on its query-centric attribute distance and a
// user-controlled relative-error bound.
//
// # Overview
//
// Given an attributed graph and a query node q, the library finds a
// connected k-core (or k-truss) containing q whose members are similar to q
// under a composite attribute distance mixing Jaccard distance over textual
// attributes with normalized Manhattan distance over numerical attributes.
//
// The public API is one request type answered by many methods, mirroring
// the paper's experimental design (§VII): a Request is the graph-independent
// query spec — query node, method, k, structural model, accuracy and size
// parameters, seed — and every solver answers it through the same Searcher
// interface with the same Outcome shape:
//
//	req := sea.DefaultRequest(q)          // method SEA, the paper's defaults
//	req.K, req.ErrorBound = 6, 0.01
//	out, err := sea.Execute(ctx, g, req)  // or NewSearcher(m).Search(ctx, g, req)
//	fmt.Println(out.Community, out.Delta, out.SEA.CI)
//
// Registered methods (Request.Method / NewSearcher):
//
//   - MethodSEA — the index-free sampling-estimation pipeline (§V), fast,
//     with a confidence interval certifying the relative error of the
//     reported attribute distance (Theorem 11): the closed form, z·σ̂/√n,
//     of the margin the paper's Bag of Little Bootstraps estimates by
//     resampling;
//   - MethodExact — the branch-and-bound baseline with the paper's three
//     pruning strategies (§IV); Request.MaxStates bounds the search tree,
//     returning the best-so-far with ErrBudgetExhausted;
//   - MethodACQ, MethodLocATC, MethodVAC, MethodEVAC — the competing
//     methods of the paper's experimental study;
//   - MethodStructural — the plain maximal connected k-core/k-truss,
//     attributes ignored.
//
// Every Outcome carries the same q-centric δ, recomputed identically
// whatever the method, so outcomes are directly comparable. Failures
// classify through errors.Is against the shared sentinels ErrNoCommunity,
// ErrBudgetExhausted and ErrInvalidRequest.
//
// Execution is context-aware end to end: the search loops of every method
// poll the context, so cancelling it (deadline, client disconnect) stops
// the work promptly. Direct calls (Execute, Searcher.Search) return the
// best community found so far with the context's error wrapped; the
// serving path (Engine.Query, HTTP) returns the deadline error and
// discards the cancelled computation.
//
// Heterogeneous graphs are supported through meta-path projections
// (NewHetGraphBuilder / Project), size-bounded search through
// Request.SizeLo/SizeHi, and the k-truss model through Request.Model. Under
// the k-truss model a SEA round extracts the maximal connected k-truss of
// the sample for the request's fixed k in one pass — within the sample's
// maintained (k−1)-core, only the nodes q reaches over edges that close
// k−2 triangles there, one edge index over those, supports counted once per
// triangle, a threshold peel whose surviving state becomes the round's
// maintenance structure — and never computes trussness levels; the full
// truss decomposition is run only to build the engine's admission index.
//
// # Serving
//
// For serving many queries over one fixed graph, NewEngine builds a
// long-lived, concurrency-safe engine that amortizes the per-call cost of
// Execute: the attribute metric and the core/truss decompositions are
// computed (or adopted from a snapshot) once, at construction, maintained by
// every mutation, and shared (the decompositions double as an admission
// index that proves the absence of a community for any method without
// searching), full Outcomes are held in a sharded CLOCK cache keyed by the
// canonical Request, and concurrent identical requests are coalesced so the
// work happens once. Nothing is kept per query node, and a cache miss builds
// nothing of size |V|: SEA evaluates f(·,q) at the nodes the search touches
// and drops the values with the search; only MethodExact fills f over every
// node.
//
// Engine.Query serves one Request with whatever method it names,
// Engine.Batch answers many — what the result cache holds inline on the
// calling goroutine, in order, the rest through a worker pool; Engine.Answer
// does the same into items the caller owns — and both report flat per-stage timing metrics (QueryMetrics, Engine.Stats).
// Per-request deadlines cancel the underlying search — a stuck query frees
// its concurrency slot at its deadline instead of holding it until the
// search finishes on its own. NewCatalogHTTPHandler exposes engines over
// HTTP, one engine being a one-dataset catalog (NewCatalog + Catalog.Mount):
// /search and /batch speak the Request JSON form, and /compare replays one
// Request through several methods side by side. The engine itself knows
// nothing about HTTP: both handlers of a node (NewCatalogHTTPHandler and
// NewClusterNodeHandler) are built by internal/httpapi from one route table
// of (method, path, handler, write-fenced) rows, whose dispatcher echoes
// X-Request-ID, answers 405 + Allow for a method a path has no row for, and
// holds the follower write fence.
//
// # Snapshots
//
// An engine's full serving state — the CSR graph arrays, the attribute
// dictionary, the text/numeric attribute columns, and the precomputed
// admission indexes (coreness, node-trussness, the metric's normalization
// table) — persists as one versioned, checksummed binary snapshot
// (Engine.WriteSnapshot / WriteSnapshot), and reopens ready to serve with
// zero parsing and zero recomputation (OpenSnapshot + NewEngineFromSnapshot).
// On a profile-scale graph the snapshot path boots an engine more than 10×
// faster than parsing the text format and rebuilding the indexes
// (BenchmarkBoot in internal/store).
//
// The format guarantees: a deterministic byte stream for a given state; a
// version check (ErrSnapshotVersion when the magic or version is not this
// build's); CRC-32C plus structural validation of every array on every
// heap open (ErrSnapshotCorrupt; the zero-copy mapped open checks the header
// and section table only); and semantic identity — the same Request answered
// by the written and the reopened engine yields a byte-identical Outcome.
//
// Snapshots are produced by cmd/datagen -pack, cmd/seacli pack (text →
// snapshot), or any engine at runtime.
//
// Every writer emits one layout, version 2: each array sits at an
// 8-byte-aligned file offset behind a section table, so OpenMappedSnapshot
// serves the snapshot zero-copy from a read-only memory mapping — boot cost
// is O(header + dictionary), independent of graph size. Every served graph
// is a *Graph, on the heap or over the mapping, so heap and mapped opens
// answer byte-identically — including live mutation, which overlays heap
// deltas over the read-only mapped base. DetectSnapshotFile describes any
// file's layout without opening it. Two forms earlier builds wrote are
// read-only legacy: the version-1 stream and the v2 layout with
// delta+uvarint compressed adjacency. Every open path still reads both (on
// the heap, fully validated), nothing writes either, and
// `seacli pack -load old.snap -out new.snap` repacks one as aligned v2.
//
// # Multi-graph serving
//
// NewCatalog builds a named registry of datasets, each backed by its own
// Engine, for servers that mount several graphs at once. Request routing
// is the Request.Graph field on the wire (empty = the default dataset);
// NewCatalogHTTPHandler serves the full query surface routed per dataset
// (the same route table with the catalog's rows appended), plus /graphs
// (list, shape, per-engine stats) and /admin/reload
// (hot-swap: the new snapshot loads and validates off to the side, one
// atomic pointer flip publishes it, in-flight queries drain on the old
// engine while new ones hit the new snapshot — a corrupt file never
// disturbs the running engine). A JSON manifest (LoadCatalogManifest,
// Catalog.MountManifest) mounts the catalog at boot:
//
//	{"default": "facebook",
//	 "datasets": [{"name": "facebook", "path": "facebook.snap"},
//	              {"name": "github",   "path": "github.snap", "gamma": 0.7}]}
//
// The quickstart from nothing to a served, live-updatable snapshot:
//
//	datagen -dataset facebook -scale 0.5 -out fb.txt    # text exchange format
//	seacli pack -load fb.txt -out fb.snap               # pack graph + indexes
//	seaserve -snapshot fb.snap -journal fb.journal &    # boots in milliseconds
//	curl 'localhost:8080/search?q=10&k=6&graph=fb'
//	seacli mutate -add-edge 3,9 -set-attr "4=db,ml"     # live update, journaled
//	seacli mutate -remove-edge 3,9 -compact             # fold journal → snapshot
//
// # Live updates
//
// The served graph is not frozen: Engine.Apply (programmatic),
// Catalog.Mutate (per dataset) and POST /admin/mutate (wire) fold a batch
// of Mutations — AddEdgeDelta, RemoveEdgeDelta, AddNodeDelta,
// SetAttrDelta — into the running engine without a reload or a hot-swap.
// The deltas accumulate in a delta-overlay graph view and materialize into
// a fresh immutable CSR that copies only what the batch wrote — touched rows
// merged, runs of untouched rows block-copied, and a column the batch did
// not write (the adjacency of a set_attr-only batch, the attributes of an
// edge-only one) shared with the previous generation, which may mean with a
// mapped snapshot: retired mappings unmap only at Catalog.Close. The
// coreness and trussness admission
// indexes are maintained incrementally — bounded re-computation restricted
// to the affected region (the subcore of the touched endpoints, the
// triangle-connected truss scope below a level bound) instead of a
// whole-graph decomposition, proven equal to from-scratch decomposition on
// randomized mutation sequences. Cache invalidation is scoped the same
// way: only result entries whose query node falls in the affected region
// are dropped; everything else stays warm. The new state publishes
// atomically, so a request always runs against one consistent graph + index
// generation.
//
// Durability is a write-ahead mutation journal (seaserve -journal,
// Catalog.MountPathJournaled): batches are appended and synced before the
// mutation call returns, replayed on top of the snapshot at boot (per-record
// CRCs truncate a torn tail), and folded into a fresh snapshot by the
// compactor (Catalog.Compact, POST /admin/compact, or automatically every
// -compact-every batches), which then truncates the journal.
//
// Concurrent writers go through a staged group-commit pipeline rather
// than serializing one fsync and one maintenance pass each: Catalog.Mutate
// enqueues the caller's delta group on a per-dataset batcher and a single
// flusher folds up to 64 queued groups through one incremental-maintenance
// session, one published engine generation (version+1 per flush, not per
// writer), and one journal batch record — one sequence number, one CRC,
// one fsync for the lot. Each group stays all-or-nothing with its own
// result; once 256 groups are queued, new writes shed with ErrOverloaded
// (HTTP 429 + Retry-After) before anything is applied, so an acknowledged
// delta is never lost. The batcher has no knobs and no hold-open window:
// it flushes whatever is queued at once, so an uncontended writer pays no
// added latency and batches form while the previous flush's fsync runs.
//
// # Distributed serving
//
// The journal doubles as a replication stream. A follower (seaserve
// -follow, internal/cluster.Follower) bootstraps from GET /admin/replicate
// — a streamed snapshot whose headers carry the exact (version, lineage)
// replication cursor — then tails GET /admin/journal?from= and folds each
// batch through its own catalog mutation path, so replicas are cache-warm,
// journaled, and promotable. Cursors the primary can no longer serve
// (compaction passed them by, or a hot-swap started a new lineage) answer
// 410 Gone and the follower re-bootstraps transparently. cmd/searouter
// fronts a primary plus its followers: consistent-hash read placement,
// scatter-gather /batch and /compare with per-shard deadlines and
// partial-result degradation, write forwarding to the primary, and
// automatic promotion of the most-caught-up follower when the primary
// dies. Every response carries an X-Request-ID for end-to-end correlation,
// and every node serves its counters in Prometheus text form on /metrics.
//
// # Fault tolerance
//
// The failure paths are engineered and tested, not hoped about. The router
// retries failed reads against a different in-sync replica under jittered
// exponential backoff and keeps a circuit breaker per member (consecutive
// failures open it; after a cooldown one half-open probe decides), so a
// flaky or dead member is routed around instead of answered with its
// errors; exhausted retries yield an honest terminal status (429 for a
// shed, 503 when every breaker is open, else 502 — each with Retry-After
// and the request id). Nodes bound their own load: -max-inflight caps
// admitted cache-miss computations per dataset and sheds the excess
// immediately with 429 + Retry-After, behind the result cache and request
// coalescing so hits and coalesced joins always answer. Followers whose
// sync fails back off exponentially (capped, jittered) and report it in
// /admin/replication; a severed bootstrap stream fails clean and a failed
// journal append rewinds, fails the dataset closed for writes while reads
// keep serving, and heals by compaction. All of it is provable because the
// failure points are injectable: internal/faults arms named sites
// (journal.fsync, replicate.stream, router.shard, engine.search, ...)
// with seed-deterministic specs (seaserve/searouter -faults, $SEAFAULTS)
// at zero cost when disarmed, and make chaos-smoke replays the whole
// story — injected faults plus a kill -9ed primary under load — against
// real binaries.
//
// # Observability
//
// internal/obs is the measurement substrate: a lock-free, allocation-free
// latency histogram (atomic log-bucketed counters, ≤25% bucket width,
// exact count and sum) whose record path is two atomic adds, recorded
// unconditionally on every stage of every request. Snapshots are immutable
// (one shared bucket layout) and estimate percentiles by interpolation.
// The engine keeps a histogram per read stage (admission, search;
// whole-request split by hit/miss/coalesced/shed outcome) and per mutation
// stage (apply, journal append, scoped invalidation) in one array indexed
// by stage; one table (LatencyStages) gives each stage its /stats key and
// its /metrics family and label, so a new stage is one constant and one
// row. The router measures per-shard scatter latency and fan-out width.
// GET /metrics renders them as Prometheus histogram families (cumulative le
// buckets, _sum, _count — every family of every endpoint through the one
// obs.FamilyWriter, validated by the strict parser obs.CheckExposition),
// GET /stats digests them to JSON
// percentiles, and GET /debug/trace?n= returns the newest spans from a
// fixed-size trace ring (request id, stage timings, cache provenance;
// served-by and scatter width at the router). A slow-query log
// (Config.SlowQuery, seaserve -slow-query) emits one structured line per
// offender, and -pprof mounts net/http/pprof on a separate loopback
// listener. cmd/seaload closes the loop: an open-loop generator (fixed
// schedule, so coordinated omission cannot hide queueing) that drives
// weighted search/batch/compare/mutate mixes over zipf-distributed query
// nodes and merges {scenario, qps, p50/p90/p99/p999} records into the
// committed BENCH_<pr>.json trajectory (make bench-json, make load-smoke).
//
// # Performance
//
// The hot paths run on a pooled per-search workspace (internal/ws):
// epoch-stamped visited/membership sets reset by an epoch bump instead of
// reallocation, reusable frontier/sampling buffers, the f(·,q) values a
// search has evaluated (attr.View, which evaluates f on first touch), and the
// sample of a search, kept as a membership on the graph's own node IDs that
// each model's extraction (kcore.MaximalSubIn, truss.MaximalSubIn) walks from
// q — so the substrate operations of the sampling → extraction → estimation
// loop run with ~zero allocations (CI-enforced by the BenchmarkSubstrate*
// guards) and a round costs what q reaches in the sample, not the sample. A
// search evaluates f only at Gq, its
// frontier and its candidates: a million unreachable nodes change neither
// its answer nor its work (TestPaddingAddsNoWork). The induced-subgraph
// builder that writes into preallocated CSR arrays (graph.InducedStructureOf)
// is what the tests compare that structure against; no serving path calls
// it. A whole search is not allocation-free: over 400
// cold searches per workload a twitter k-core search allocated 1 608 KB and
// a twitch k-truss search 617 KB while BLB seeded a generator per subsample
// and the loop repeated rounds that had nothing to draw; 1 449 and 199 KB
// without those rounds; 405 and 27 KB since BLB draws from the search's
// generator; 60 and 18 KB since the k-core maintainer's arrays are pooled;
// 23 and 9 KB since S2's interval is a closed form.
// The engine's miss used to add an f(·,q) vector of 8·n bytes to that (375
// and 63 KB); it adds none now (BenchmarkSubstrateSEAMiss guards it).
// What is left is the generator, each round's maintainer header, the peel's
// removed-node lists and the returned community; S2's interval
// (stats.MeanCI) allocates nothing and draws nothing. Parallelism is between
// requests: the engine runs up to MaxConcurrent searches side by side and
// Batch's pool is that wide (for what it has to compute; cached items it
// answers inline and a fully cached batch starts no goroutine), while
// each search runs on the goroutine that was handed it: no request fans
// out. BLB (since replaced in the search by its closed form) and the peel
// scan lost their fan-outs when a probe of the
// benchmark's workloads found candidates of at most 48 members and BLB calls
// over at most 47 values — ~40 µs of work each; Metric.QueryDist, which only
// MethodExact runs, lost its node-range fan-out when it measured no faster
// than the serial loop (0.67 vs 0.64 ms on a 12k-node twitter analog, 2.40
// vs 2.41 ms at 48k nodes, 2 vCPUs), under 1% of one budgeted exact search.
// A result depends on the Request alone: a search builds one generator
// from its seed, and the first sample and every S3 draw take from it in
// order, so for a fixed seed the Outcome is
// byte-identical whatever GOMAXPROCS is and however many searches run beside
// it. A round runs only if S3 added something to the sample: once the sample
// is all of q's component the loop ends instead of repeating the round until
// MaxRounds. The repository's recorded perf trajectory lives in
// BENCH_<pr>.json files produced by `make bench-json`
// and compared with `make bench-compare` (or `seabench -compare
// BENCH_4.json`).
//
// # Removed in PR 12: the pre-Request entry points
//
//	Search, SearchWithDist, Options     → Execute/ExecuteWithMetric, MethodSEA (trace in Outcome.SEA)
//	ExactSearch, ExactConfig            → Execute with MethodExact and Request.MaxStates
//	ACQ, LocATC, VAC, EVAC              → Execute with the matching Method and Model (+ MaxStates)
//	BatchSearch, Engine.BatchSearch     → Engine.Batch(ctx, []Request)
//	Engine.Search[WithMetrics]          → Engine.Query[WithMetrics](ctx, Request)
//	NewEngineFromStore, Catalog.Engine  → NewEngine (any GraphStore), Catalog.Resolve
//	WriteSnapshotOpts                   → WriteSnapshot(w, g, idx)
//	WriteSnapshotFile[Opts]             → Engine.WriteSnapshotFile(path)
//
// The per-package error values alias the shared sentinels, so errors.Is
// checks keep working unchanged.
//
// # Quickstart
//
//	b := sea.NewGraphBuilder(n, 2)        // n nodes, 2 numerical attributes
//	b.AddEdge(0, 1)                       // ... wire the graph
//	b.SetTextAttrs(0, "movie", "crime")   // textual attributes
//	b.SetNumAttrs(0, 9.2, 1.6e6)          // numerical attributes
//	g, err := b.Build()
//	req := sea.DefaultRequest(q)          // SEA, k=4, e=2%, 95% confidence
//	out, err := sea.Execute(ctx, g, req)
//	fmt.Println(out.Community, out.Delta, out.SEA.CI)
//
// See examples/ for runnable programs and internal/experiments for the code
// that regenerates every table and figure of the paper.
package sea
