package sea

import (
	"context"
	"io"
	"net/http"
	"time"

	"repro/internal/attr"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/hetgraph"
	"repro/internal/httpapi"
	"repro/internal/kcore"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
	"repro/internal/store"
	"repro/internal/truss"
)

// NodeID identifies a node in a Graph; IDs are dense in [0, NumNodes).
type NodeID = graph.NodeID

// Graph is an immutable undirected attributed graph in CSR form.
type Graph = graph.Graph

// Adjacency is read-only access to graph structure — the interface every
// backing (heap or zero-copy mapped CSR, mutation overlay) implements and
// every algorithm consumes.
type Adjacency = graph.Adjacency

// GraphStore is the full serving surface of an immutable graph backing:
// structure plus attribute columns. *Graph, on the heap or over a mapped
// snapshot, satisfies it.
type GraphStore = graph.Store

// CopyGraph materializes any GraphStore into a heap *Graph (a *Graph passes
// through unchanged) — the export/compaction path for other backings.
func CopyGraph(s GraphStore) *Graph { return graph.CopyStore(s) }

// GraphBuilder assembles a Graph; create one with NewGraphBuilder.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n nodes and numDim
// numerical attribute dimensions per node.
func NewGraphBuilder(n, numDim int) *GraphBuilder { return graph.NewBuilder(n, numDim) }

// Metric evaluates the composite attribute distance of the paper (§II) on a
// fixed graph: γ·Jaccard + (1−γ)·normalized Manhattan.
type Metric = attr.Metric

// NewMetric builds a Metric over g with balance factor gamma ∈ [0,1]
// (1 = textual only, 0 = numerical only).
func NewMetric(g *Graph, gamma float64) (*Metric, error) { return attr.NewMetric(g, gamma) }

// Delta computes the query-centric attribute distance δ(H) of a community:
// the mean composite distance to q over members other than q. dist must be
// the precomputed f(·,q) vector (Metric.QueryDist).
func Delta(dist []float64, members []NodeID, q NodeID) float64 {
	return attr.Delta(dist, members, q)
}

// Model selects the structure-cohesiveness model of a Request.
type Model = sea.Model

// Community models.
const (
	KCore  = sea.KCore
	KTruss = sea.KTruss
)

// Method names a community-search solver; every registered method answers
// the same Request through the same Searcher interface.
type Method = query.Method

// Registered methods: the paper's SEA pipeline, the exact branch-and-bound,
// the four competing baselines of §VII, and the attribute-free structural
// community.
const (
	MethodSEA        = query.MethodSEA
	MethodExact      = query.MethodExact
	MethodACQ        = query.MethodACQ
	MethodLocATC     = query.MethodLocATC
	MethodVAC        = query.MethodVAC
	MethodEVAC       = query.MethodEVAC
	MethodStructural = query.MethodStructural
)

// ParseMethod resolves a method's registry name ("sea", "exact", "acq",
// "locatc", "vac", "evac", "structural").
func ParseMethod(name string) (Method, error) { return query.ParseMethod(name) }

// Methods returns every registered method in registry order.
func Methods() []Method { return query.Methods() }

// Request is the graph-independent community-search query spec shared by
// every method, the Engine, cmd/seacli and the HTTP server: which node,
// which solver, which structural model, and the accuracy/size/budget
// parameters. Zero-valued fields select the defaults — the paper's, except
// λ = 1 (see the package documentation) — Seed excepted, as 0 is itself a
// valid seed; start from DefaultRequest or fill the fields you need.
type Request = query.Request

// DefaultRequest returns a Request for query node q with the default
// parameters fully spelled out: the paper's (§VII-A), except λ = 1.
func DefaultRequest(q NodeID) Request { return query.DefaultRequest(q) }

// Outcome is the method-agnostic result of one Request: the community, its
// q-centric attribute distance δ (computed identically for every method),
// and method-specific detail (SEA's confidence interval, exact's state
// count, a Truncated marker for best-so-far answers).
type Outcome = query.Outcome

// Searcher answers Requests with one fixed method; obtain one per method
// from NewSearcher. Implementations are stateless and safe for concurrent
// use, and honor ctx cancellation inside their search loops.
type Searcher = query.Searcher

// NewSearcher returns the Searcher for a registered method.
func NewSearcher(m Method) (Searcher, error) { return query.NewSearcher(m) }

// Execute answers req on g with the method req names, building the default
// attribute metric (γ=0.5). Cancelling ctx stops the search promptly; an
// interrupted search returns its best-so-far Outcome (Truncated set) with
// ctx's error wrapped. Use ExecuteWithMetric to control γ or amortize the
// metric across calls.
func Execute(ctx context.Context, g *Graph, req Request) (*Outcome, error) {
	return query.Execute(ctx, g, req)
}

// ExecuteWithMetric is Execute with a caller-supplied attribute metric.
func ExecuteWithMetric(ctx context.Context, g *Graph, m *Metric, req Request) (*Outcome, error) {
	return query.Run(ctx, g, m, req)
}

// Unified error taxonomy: every method classifies its failures behind these
// errors.Is-able sentinels, whatever entry point produced them.
var (
	// ErrNoCommunity reports that no community satisfying the structural
	// (and size) constraints exists around the query node.
	ErrNoCommunity = cserr.ErrNoCommunity
	// ErrBudgetExhausted reports that a state budget cut an exact search
	// short; the accompanying result carries the best community found.
	ErrBudgetExhausted = cserr.ErrBudgetExhausted
	// ErrInvalidRequest reports a malformed Request: bad
	// parameters, an unknown method, or an unsupported method/model pair.
	ErrInvalidRequest = cserr.ErrInvalidRequest
	// ErrSnapshotVersion reports a snapshot whose magic or format version
	// this build does not read.
	ErrSnapshotVersion = cserr.ErrSnapshotVersion
	// ErrSnapshotCorrupt reports a snapshot failing its checksum or
	// structural validation.
	ErrSnapshotCorrupt = cserr.ErrSnapshotCorrupt
	// ErrUnknownGraph reports a request naming a dataset the catalog has
	// not mounted.
	ErrUnknownGraph = cserr.ErrUnknownGraph
	// ErrOverloaded reports a request shed by admission control or by a
	// full commit queue: nothing was enqueued or applied, and the
	// request is safe to retry after backing off (HTTP 429 + Retry-After).
	ErrOverloaded = cserr.ErrOverloaded
)

// Result is the outcome of a SEA search: the community, its attribute
// distance δ*, the confidence interval, the per-round trace and step times.
// Execute returns it as Outcome.SEA.
type Result = sea.Result

// ExactResult is the outcome of an exact search; Execute returns it as
// Outcome.Exact.
type ExactResult = exact.Result

// CoreDecompose returns the coreness of every node (Batagelj–Zaversnik).
func CoreDecompose(g *Graph) []int32 { return kcore.Decompose(g) }

// MaximalConnectedKCore returns the node set of the maximal connected k-core
// containing q, or nil.
func MaximalConnectedKCore(g *Graph, q NodeID, k int) []NodeID {
	return kcore.MaximalConnectedKCore(g, q, k)
}

// MaximalConnectedKTruss returns the node set of the maximal connected
// k-truss containing q, or nil.
func MaximalConnectedKTruss(g *Graph, q NodeID, k int) []NodeID {
	return truss.MaximalConnectedKTruss(g, q, k)
}

// Engine is a long-lived, concurrency-safe query-serving layer over one
// graph: it precomputes and shares the attribute metric and the structural
// decompositions across queries, caches full Outcomes in a sharded CLOCK
// cache whose hits take no lock, and coalesces concurrent identical queries
// single-flight style. Nothing is kept per query node: a cache miss computes
// f(·,q) inside the search.
// Every request is one Request, whatever the method; Engine.Query is the
// unified entry point and Engine.Batch its worker-pool form (Engine.Answer
// the same over items the caller owns), the pool as wide as MaxConcurrent.
// Per-request deadlines (and client disconnects) cancel the underlying
// search, not just the wait. Create one with NewEngine; serve it over HTTP
// as a one-dataset catalog (NewCatalog, Catalog.Mount,
// NewCatalogHTTPHandler).
type Engine = engine.Engine

// EngineConfig parameterizes NewEngine: the attribute balance γ and the
// deployment's resource and latency bounds (result-cache entries, executing
// and admitted computations, the per-request deadline, the slow-query log).
// Start from DefaultEngineConfig.
type EngineConfig = engine.Config

// DefaultEngineConfig returns a serving configuration suitable for mid-size
// graphs: γ=0.5, 4096 cached results.
func DefaultEngineConfig() EngineConfig { return engine.DefaultConfig() }

// NewEngine builds a serving engine over g — a *Graph or any other
// GraphStore backing, most importantly a zero-copy mapped snapshot —
// precomputing the shared per-graph state: the attribute metric
// and the core and truss decompositions, both admission indexes whole before
// the first request.
func NewEngine(g GraphStore, cfg EngineConfig) (*Engine, error) { return engine.New(g, cfg) }

// Snapshot is the reopened serving state of a packed dataset: the graph
// and, when the snapshot carried one, the precomputed index.
type Snapshot = store.Snapshot

// SnapshotIndex is the serializable precomputed per-graph state a snapshot
// persists alongside the graph: the coreness and node-trussness admission
// indexes, the per-edge trussness, and the attribute-metric normalization
// table.
type SnapshotIndex = store.Index

// PackOptions selects nothing: every written snapshot is the aligned v2
// layout. It stays only for PackSnapshotFileOpts, whose callers in the
// benchmark module pass PackOptions{Align: true}.
type PackOptions = store.PackOptions

// SnapshotInfo describes an on-disk snapshot without opening it: format
// version, section layout, alignment/compression/index properties and size.
// The zero value (Version 0) means "not a snapshot file".
type SnapshotInfo = store.SnapshotInfo

// MountedSnapshot is an opened serving backing plus the resources behind it
// — for a mapped snapshot, the live memory mapping. Close it only when
// nothing reaches the backing anymore.
type MountedSnapshot = store.Mounted

// WriteSnapshot serializes g and idx (which may be nil for a graph-only
// snapshot) to w in the versioned, checksummed binary snapshot format of
// internal/store: the mmap-ready aligned v2 layout. Engine.WriteSnapshot and
// Engine.WriteSnapshotFile pack a serving engine's full state.
func WriteSnapshot(w io.Writer, g *Graph, idx *SnapshotIndex) error {
	return store.WriteSnapshot(w, g, idx)
}

// OpenMappedSnapshot opens the snapshot at path for zero-copy serving: it
// maps read-only and serves straight from the page cache — O(1) boot in the
// graph size — while a legacy file (v1, or v2 with compressed adjacency) or
// an mmap-less platform falls back to a fully verified heap open (Mapped()
// reports which).
func OpenMappedSnapshot(path string) (*MountedSnapshot, error) { return store.OpenMapped(path) }

// MountGraphFile is OpenGraphFile's zero-copy sibling: a snapshot maps
// read-only (a legacy file heap-opens), anything else parses as the text
// exchange format.
func MountGraphFile(path string) (*MountedSnapshot, error) { return store.MountGraphFile(path) }

// OpenSnapshot reads one snapshot, verifying version, checksum and
// structure; the result is ready to serve with zero parsing or
// recomputation. Errors classify as ErrSnapshotVersion or
// ErrSnapshotCorrupt.
func OpenSnapshot(r io.Reader) (*Snapshot, error) { return store.Open(r) }

// OpenSnapshotFile opens the snapshot at path.
func OpenSnapshotFile(path string) (*Snapshot, error) { return store.OpenFile(path) }

// DetectSnapshotFile inspects the file at path and describes what kind of
// snapshot it is (format version, sections, alignment, compression, size),
// reading only the header and section table. A file that is not a snapshot
// — e.g. the text exchange format — returns the zero SnapshotInfo
// (IsSnapshot() == false) with a nil error.
func DetectSnapshotFile(path string) (SnapshotInfo, error) { return store.DetectFile(path) }

// OpenGraphFile opens a graph file in either on-disk form, sniffing the
// snapshot magic: a packed snapshot opens with its index, anything else
// parses as the text exchange format (Snapshot.Index nil).
func OpenGraphFile(path string) (*Snapshot, error) { return store.OpenGraphFile(path) }

// NewEngineFromSnapshot builds an Engine directly from a reopened snapshot,
// skipping the construction-time metric scan and core/truss decompositions
// when the snapshot carries an index (an index without the edgetruss
// section — v1, legacy compressed, or a v2 file written before it — pays
// the truss decomposition).
func NewEngineFromSnapshot(snap *Snapshot, cfg EngineConfig) (*Engine, error) {
	return engine.NewFromSnapshot(snap, cfg)
}

// PackSnapshotFileOpts builds the complete serving index over g (core, truss,
// metric table) and writes the snapshot to path — atomically, through
// Engine.WriteSnapshotFile — returning the file size. It is the one pack
// pipeline behind cmd/datagen -pack and cmd/seacli pack.
// Snapshots are gamma-agnostic — the packed normalizer table does not
// depend on the balance factor, which is chosen at serving time. (The Opts
// suffix and the inert PackOptions parameter are historical; the frozen
// benchmark module calls it with both.)
func PackSnapshotFileOpts(g *Graph, path string, _ PackOptions) (int64, error) {
	eng, err := NewEngine(g, DefaultEngineConfig())
	if err != nil {
		return 0, err
	}
	return eng.WriteSnapshotFile(path)
}

// Mutation is one live graph delta — add_edge, remove_edge, add_node or
// set_attr — applied through Engine.Apply or Catalog.Mutate without a
// reload. Its JSON form is the POST /admin/mutate wire format and the
// write-ahead journal record payload.
type Mutation = mutate.Delta

// MutationOp names a Mutation's operation.
type MutationOp = mutate.Op

// Mutation operations.
const (
	OpAddEdge    = mutate.OpAddEdge
	OpRemoveEdge = mutate.OpRemoveEdge
	OpAddNode    = mutate.OpAddNode
	OpSetAttr    = mutate.OpSetAttr
)

// AddEdgeDelta returns the mutation inserting the undirected edge (u,v).
func AddEdgeDelta(u, v NodeID) Mutation { return mutate.AddEdge(u, v) }

// RemoveEdgeDelta returns the mutation deleting the undirected edge (u,v).
func RemoveEdgeDelta(u, v NodeID) Mutation { return mutate.RemoveEdge(u, v) }

// AddNodeDelta returns the mutation appending a node (ID = NumNodes at
// apply time) with the given attributes (num may be nil for all-zero).
func AddNodeDelta(text []string, num []float64) Mutation { return mutate.AddNode(text, num) }

// SetAttrDelta returns the mutation replacing v's attributes; a nil text or
// num keeps that column unchanged.
func SetAttrDelta(v NodeID, text []string, num []float64) Mutation {
	return mutate.SetAttr(v, text, num)
}

// ApplyResult reports what one Engine.Apply mutation batch did: the new
// graph generation and shape, assigned node IDs, and the scoped-cache
// invalidation tallies.
type ApplyResult = engine.ApplyResult

// MutateResult is ApplyResult as reported by Catalog.Mutate, with the
// caller's per-delta outcomes, the journal sequence number when the dataset
// is journaled, and the group-commit batch timings.
type MutateResult = catalog.MutateResult

// CompactResult reports one journal compaction (Catalog.Compact): the
// snapshot the journal folded into and how many batches it absorbed.
type CompactResult = catalog.CompactResult

// Catalog is a concurrency-safe named registry of mounted datasets, each
// backed by its own Engine, with atomic hot-swap: load a new snapshot, flip
// the pointer, and in-flight queries drain on the old engine while new ones
// hit the new snapshot. Mutations flow through Catalog.Mutate — applied
// live on the dataset's engine and journaled durably when the dataset
// mounted with MountPathJournaled. Create one with NewCatalog.
type Catalog = catalog.Catalog

// CatalogInfo describes one mounted dataset of a Catalog.
type CatalogInfo = catalog.Info

// CatalogManifest lists the datasets a serving process mounts at boot
// (Catalog.MountManifest).
type CatalogManifest = catalog.Manifest

// NewCatalog returns an empty dataset catalog.
func NewCatalog() *Catalog { return catalog.New() }

// LoadCatalogManifest reads a JSON manifest file listing datasets to mount.
func LoadCatalogManifest(path string) (*CatalogManifest, error) { return catalog.LoadManifest(path) }

// NewCatalogHTTPHandler returns the multi-dataset JSON serving surface of a
// Catalog: the full engine query surface routed by the wire request's
// "graph" field, plus /graphs (list + stats) and /admin/reload (hot-swap).
func NewCatalogHTTPHandler(c *Catalog, base EngineConfig) http.Handler {
	return httpapi.New(httpapi.CatalogRoutes(c, base), nil)
}

// ErrReplicaResync reports a replication cursor the primary cannot serve a
// journal tail for (compacted past, new lineage, primary restart); the
// follower must bootstrap a fresh snapshot. The HTTP surface maps it to 410
// Gone.
var ErrReplicaResync = catalog.ErrResync

// ReplicationInfo is the replication-relevant state of one mounted dataset:
// the cursor a snapshot fetched now would carry and the journal window a
// tail can be served from (Catalog.ReplicationInfo).
type ReplicationInfo = catalog.ReplicationInfo

// ClusterNodeStatus is one cluster node's role and per-dataset replication
// state — the GET /admin/replication body.
type ClusterNodeStatus = cluster.NodeStatus

// ClusterReplicaStatus is the replication state of one dataset on one
// cluster node.
type ClusterReplicaStatus = cluster.ReplicaStatus

// ClusterFollower replicates every dataset of a primary seaserve into a
// local Catalog by snapshot bootstrap plus journal tailing, and can be
// promoted into a writable primary. Create one with NewClusterFollower.
type ClusterFollower = cluster.Follower

// NewClusterFollower returns a follower replicating from the primary at
// primaryURL into cat, keeping replica snapshots and journals under dir.
// Call Bootstrap once, then Run; pollEvery ≤ 0 uses the default.
func NewClusterFollower(cat *Catalog, primaryURL, dir string, cfg EngineConfig, pollEvery time.Duration) *ClusterFollower {
	return cluster.NewFollower(cat, primaryURL, dir, cfg, pollEvery)
}

// NewClusterNodeHandler returns the HTTP surface of one cluster node: the
// catalog handler plus the replication-control endpoints and, for
// followers (fol non-nil), the write fence. This is what cmd/seaserve
// serves.
func NewClusterNodeHandler(c *Catalog, base EngineConfig, fol *ClusterFollower) http.Handler {
	return cluster.NewNodeHandler(c, base, fol)
}

// ClusterRouterConfig configures a ClusterRouter.
type ClusterRouterConfig = cluster.RouterConfig

// ClusterRouter is the front tier over a replicated cluster — each read
// answered whole by one in-sync replica, round-robin over all of them, and
// retried whole on the next, write forwarding, and follower promotion on
// primary death. cmd/searouter wires it to flags and a listener. Create one
// with NewClusterRouter and release it with Close.
type ClusterRouter = cluster.Router

// NewClusterRouter builds a router over cfg.Members and starts its health
// prober.
func NewClusterRouter(cfg ClusterRouterConfig) (*ClusterRouter, error) {
	return cluster.NewRouter(cfg)
}

// QueryMetrics is the flat, CSV-friendly per-request stage timing record
// produced by Engine.QueryWithMetrics and Engine.Batch.
type QueryMetrics = engine.QueryMetrics

// QueryMetricsHeader returns the CSV header matching QueryMetrics.CSVRecord.
func QueryMetricsHeader() []string { return engine.QueryMetricsHeader() }

// EngineStats is a point-in-time snapshot of an Engine's aggregate counters
// and cache occupancy (Engine.Stats).
type EngineStats = engine.Stats

// LatencyStats is a point-in-time snapshot of every stage-latency histogram
// an Engine records (Engine.Latency), at full bucket resolution: an array
// indexed like LatencyStages, digestible to percentiles via Summary.
type LatencyStats = engine.LatencyStats

// LatencySummary is the percentile digest of LatencyStats
// (count/mean/p50/p90/p99/p999/max in microseconds per stage), indexed like
// LatencyStages; it marshals as (and decodes from) the JSON object served
// under "latency" by GET /stats, keyed by LatencyStages[·].Key.
type LatencySummary = engine.LatencySummary

// LatencyStages describes each index of LatencyStats and LatencySummary:
// the stage's /stats key and the Prometheus family (name, help) and label
// of its /metrics series.
var LatencyStages = engine.Stages

// EngineSpan is one request's trace record (correlation id, dataset, start
// timestamp, per-stage metrics) as kept in the engine's trace ring and
// served by GET /debug/trace.
type EngineSpan = engine.Span

// RouterSpan is one request's trace record at the cluster router: route,
// the status the router wrote and the member that answered.
type RouterSpan = cluster.RouterSpan

// EngineBatchItem pairs one Request of Engine.Batch with its Outcome and
// per-stage metrics.
type EngineBatchItem = engine.BatchItem

// WriteMetricsCSV writes one CSV row per Engine.Batch item in the
// QueryMetrics format, header included.
func WriteMetricsCSV(w io.Writer, items []EngineBatchItem) error {
	return engine.WriteMetricsCSV(w, items)
}

// InfluentialResult is the outcome of InfluentialSearch.
type InfluentialResult = sea.InfluentialResult

// InfluentialSearch finds the connected k-core containing q maximizing the
// minimum member influence, with an EVT-based estimate of the maximum
// influence in the search region (the §VI-A HIC extension).
func InfluentialSearch(g *Graph, q NodeID, k int, influence []float64) (*InfluentialResult, error) {
	return sea.InfluentialSearch(g, q, k, influence)
}

// HetGraph is an immutable heterogeneous attributed graph (§VI-A).
type HetGraph = hetgraph.HetGraph

// HetGraphBuilder assembles a HetGraph.
type HetGraphBuilder = hetgraph.Builder

// NewHetGraphBuilder returns an empty heterogeneous graph builder.
func NewHetGraphBuilder() *HetGraphBuilder { return hetgraph.NewBuilder() }

// MetaPath is an alternating sequence of node and edge types; community
// members have the path's endpoint (target) type.
type MetaPath = hetgraph.MetaPath

// Projection is the homogeneous P-neighbor graph over a meta-path's target
// nodes, with mappings to and from heterogeneous node IDs.
type Projection = hetgraph.Projection

// Project builds the P-neighbor projection of h along p; run Execute on
// Projection.Graph to obtain a (k,P)-core community.
func Project(h *HetGraph, p MetaPath) (*Projection, error) { return h.Project(p) }

// LoadGraph reads an attributed graph from the plain-text exchange format
// documented in internal/dataset (the format cmd/datagen writes).
func LoadGraph(r io.Reader) (*Graph, error) { return dataset.LoadGraph(r) }

// WriteGraph writes g in the exchange format LoadGraph reads.
func WriteGraph(w io.Writer, g *Graph) error { return dataset.WriteGraph(w, g) }

// Dataset bundles a generated benchmark graph with its planted ground-truth
// communities.
type Dataset = dataset.Generated

// HetDataset bundles a generated heterogeneous benchmark graph with its
// canonical meta-path and planted ground truth.
type HetDataset = dataset.HetGenerated

// GenerateDataset builds one of the named homogeneous benchmark analogs
// ("facebook", "github", "twitch", "livejournal", "twitter", "orkut",
// "amazon") at the given scale factor (1.0 = default size).
func GenerateDataset(name string, scale float64) (*Dataset, error) {
	return dataset.Homogeneous(name, scale)
}

// GenerateHetDataset builds one of the named heterogeneous benchmark analogs
// ("dblp", "imdb", "dbpedia", "yago", "freebase").
func GenerateHetDataset(name string, scale float64) (*HetDataset, error) {
	return dataset.Heterogeneous(name, scale)
}
