// Package ws provides the reusable per-search workspace substrate behind
// the repository's allocation-free hot paths. The paper's headline claim is
// scalability, and at serving scale the cost that dominates the SEA pipeline
// is not algorithmic — it is memory traffic: fresh visited sets, frontier
// queues, sampling-key arrays and induced-subgraph buffers allocated on
// every call, round after round, query after query.
//
// A Workspace bundles every scratch structure the hot loops need — epoch-
// stamped visited/membership sets (graph.NodeSet: reset by epoch bump, not
// reallocation), a best-first frontier, weighted-sampling key arrays,
// the per-node counts of the k-core extraction's walk from q, a DistScratch
// holding the f(·,q) values a search has evaluated so far, the membership of
// a search's sample, and a KCoreScratch and a TrussScratch holding the
// maintainer of a round (for k-truss also the edge index, supports, peel
// state and rollback logs). No
// serving path induces a subgraph any more: graph.InducedStructureOf,
// graph.SubScratch and Workspace.Sub are kept for benchmark/trace.go's
// primitive timings and as the reference the tests hold the incremental
// structures to. Workspaces are recycled through a bounded free list: a
// search borrows one with Get, threads it through sampling → extraction →
// estimation, and returns it with Release, so steady-state query traffic
// runs with ~zero allocations in the substrate operations (see
// BenchmarkSubstrate* at the repository root).
//
// A search's per-node arrays are sized to the graph once per Workspace and
// then reset by epoch, so what a warm search costs follows the nodes it
// touches, not |V|: SEA evaluates f(·,q) through DistScratch on first touch
// and never fills an n-vector.
//
// Nothing here starts a goroutine: a search runs on the goroutine that was
// handed it, and its answer depends on its request alone.
package ws

import (
	"runtime"

	"repro/internal/graph"
)

// NodeDist pairs a node with a float key: a frontier entry as it pops, in
// (composite distance, node ID) order, or a weighted-sampling key.
type NodeDist struct {
	V graph.NodeID
	D float64
}

// Workspace is the reusable scratch state of one search. Borrow with Get,
// return with Release; a Workspace is not safe for concurrent use. Fields
// are exported for the hot loops that thread it; any function may clobber
// any buffer, so callers must not hold a buffer across a call that also
// takes the workspace (output that outlives the call belongs in
// caller-owned slices).
type Workspace struct {
	// Visited and Member are the two epoch-stamped sets most operations
	// need (a traversal's seen set; a membership test set).
	Visited graph.NodeSet
	Member  graph.NodeSet

	// Frontier is BuildGq's frontier. Keys is the exponential-keys array of
	// WeightedSample.
	Frontier Frontier
	Keys     []NodeDist

	// Nodes and Floats are general node/float scratch (enlarge's rest pool,
	// a greedy peel's order, component output, ...).
	Nodes  []graph.NodeID
	Floats []float64

	// DegS is kcore.MaximalSubIn's per-node count: a reached node's degree
	// in the candidate set, then in the peeled core.
	DegS []int32

	// Gq, Sample, Members, Best and Probs, Vals are the SEA round loop's
	// population/sample/candidate buffers, pooled here so steady-state
	// query traffic reuses them across whole searches.
	Gq, Sample, Members, Best []graph.NodeID
	Probs, Vals               []float64

	// NbrA and NbrB are neighbor-decode scratch for graph.Adjacency
	// backings that cannot return aliased neighbor lists (overlays). CSR
	// backings never touch them. Two buffers because triangle-style loops
	// hold two lists at once.
	NbrA, NbrB []graph.NodeID

	// Sub builds induced CSR subgraphs into preallocated arrays.
	Sub graph.SubScratch

	// Sampled is the membership of a search's sample, by the graph's node
	// IDs. A round adds what it drew and hands it to the model's extraction
	// (kcore.MaximalSubIn, truss.MaximalSubIn).
	Sampled graph.NodeSet

	// Dist backs a search's lazy view of f(·,q), KCore and Truss the
	// maintainer of a round. Unlike the buffers above, these belong to the
	// structure built on them until the next one is built there.
	Dist  DistScratch
	KCore KCoreScratch
	Truss TrussScratch
}

// FrontierBuckets is the number of buckets Frontier splits f ∈ [0,1] into.
const FrontierBuckets = 4096

// Frontier is BuildGq's best-first frontier: a bucket queue over f ∈ [0,1],
// bucket ⌊f·FrontierBuckets⌋, that pops in ascending (f, node ID) order. Its
// entries live in one slab; each bucket is a list threaded through it, and
// a bucket found long moves into Heap, a binary heap of slab entries in
// (D, V) order, so a graph whose f is constant does not scan its whole
// frontier per pop. The slab holds at most as many entries as the frontier
// held at once; with the heap's slot numbers and the fixed tables (16 KB)
// that is all it keeps. The zero value is ready to use; package sampling
// owns the layout.
type Frontier struct {
	Heads   [FrontierBuckets]int32       // per bucket: first slab entry; valid where Occ has its bit
	Occ     [FrontierBuckets / 64]uint64 // bit b: bucket b's list is non-empty
	Summary uint64                       // bit i: Occ[i] != 0
	Slab    []FrontierEntry
	Free    int32   // first free slab entry, -1 when none
	Heap    []int32 // slab entries moved out of long buckets
	Len     int     // entries in the lists and the heap
	Scanned int     // list entries pops have visited since the expansion started
}

// FrontierEntry is a frontier entry of Frontier's slab.
type FrontierEntry struct {
	D    float64
	V    graph.NodeID
	Next int32 // the next entry of the same bucket (or of the free slab entries); -1 ends
}

// DistScratch holds attr.View's lazy f(·,q): the nodes evaluated so far and
// each one's value, q's scaled numerical attributes and q's tokens as a
// bitmap. Starting a search bumps one epoch and clears the previous q's
// bitmap words. The zero value is ready to use; package attr owns the
// layout.
type DistScratch struct {
	Done graph.NodeSet
	Vals []float64 // per node: f(v,q); valid for members of Done
	Q    []float64 // per dimension: q's attribute, normalized
	Bits []uint64  // q's tokens as a bitmap, as many words as its largest needs; zero past len
}

// KCoreScratch holds every array of one k-core maintainer (kcore.Sub), one
// live maintainer at a time: the next built on it clears the previous
// universe's flags and empties its rollback log. The zero value is ready to
// use; package kcore owns the layout.
type KCoreScratch struct {
	Universe    []graph.NodeID // the maintainer's member order
	Alive, Mark []bool         // per node; Mark is all false between calls
	Deg         []int32        // per node: alive neighbours; valid for alive nodes
	Stack, Comp []graph.NodeID // cascade stack, component BFS queue; MaximalSubIn's peel stack, reach queue
	Nbr         []graph.NodeID // neighbor-decode scratch for non-aliasing backings
	Removed     []graph.NodeID // removed nodes of every open RemoveCascade, flat
	Open        []int32        // per open RemoveCascade: where it starts in Removed
}

// TrussScratch holds every array of one k-truss extraction and of the
// maintainer built from it (truss.Sub): the edge index over the indexed
// nodes, the per-edge peel state, and the maintainer's stack and rollback
// logs. Like graph.SubScratch, one scratch backs one live structure at a
// time — the next extraction on it overwrites the previous maintainer, and
// clears the per-node entries of the previous one's indexed nodes, not of
// the whole graph. The zero value is ready to use; package truss owns the
// layout.
type TrussScratch struct {
	Nodes       []graph.NodeID // the indexed nodes, ascending
	Lo, Hi, End []int32        // per node: row start, first higher-neighbour position, row end
	Adj         []graph.NodeID // indexed neighbours, row by row, ascending
	Eid         []int32        // edge ID of each Adj entry
	U, V        []graph.NodeID // endpoints per edge, U < V

	Sup     []int32 // per edge: triangles among alive edges
	Alive   []bool  // per edge
	NodeDeg []int32 // per node: alive incident edges
	Mark    []bool  // per node: neighbour and component marks, all false between calls

	Universe []graph.NodeID // the maintainer's member order
	Stack    []int32        // peel work stack of edge IDs
	Tri      []int32        // partner pairs of the triangles through one edge
	Log      []int32        // removed edges of every open RemoveCascade, flat
	Removed  []graph.NodeID // removed nodes of every open RemoveCascade, flat
	Open     [][2]int32     // per open RemoveCascade: where it starts in Log and in Removed
	Comp     []graph.NodeID // BFS queue of the query's component
}

// free holds the released workspaces, as many as the engine runs searches at
// once by default (2 per processor). It is not a sync.Pool because a
// sync.Pool forgets: what sits in it through two collections is dropped, and
// what one processor parked in its private slot a search starting on another
// cannot see. A search that draws an empty Workspace grows every array again
// from nothing — ~2 MB of fresh pages on an 8 000-node graph — and how often
// that happened followed the collector's pace, not the traffic: under mixed
// read/write load on a 15 MB heap (a collection every 50 ms) 7% of the
// searches started empty, and a 20 s run took between 132 000 and 344 000
// page faults; with the free list, 74 000–103 000. The price is that up to
// cap(free) workspaces, each as large as the largest search it served, stay
// resident for the life of the process.
var free = make(chan *Workspace, 2*runtime.GOMAXPROCS(0))

// Get borrows a Workspace from the free list, or makes one when it is empty.
func Get() *Workspace {
	select {
	case w := <-free:
		return w
	default:
		return new(Workspace)
	}
}

// Release returns w to the free list; beyond its capacity w is left to the
// collector. The caller must not use w afterwards.
func (w *Workspace) Release() {
	select {
	case free <- w:
	default:
	}
}

// I32 returns buf resized to n, reusing its backing array when it is large
// enough. Contents are not cleared.
func I32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// F64 is I32 for float64 buffers.
func F64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
