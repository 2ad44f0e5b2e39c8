package engine

// Snapshot integration: an Engine's precomputed per-graph state — the core
// and node-truss admission indexes, the per-edge trussness they are
// maintained from, and the attribute-metric normalization table — exports
// as a store.Index so store.WriteSnapshot can persist it, and an Engine
// reopens from a store.Snapshot with zero recomputation: no text parse, no
// min/max attribute scan, no core or truss decomposition at boot, and none
// at the first mutation either.

import (
	"cmp"
	"io"
	"slices"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/store"
	"repro/internal/truss"
)

// exportIndex flattens one state generation into a store.Index: the
// complete admission state, etruss as its per-edge trussness, and the
// metric's normalization table.
func exportIndex(st *engState, etruss []int32) *store.Index {
	min, max := st.metric.Normalizer().Bounds()
	return &store.Index{
		Coreness:  st.core,
		NodeTruss: st.truss,
		EdgeTruss: etruss,
		NormMin:   min,
		NormMax:   max,
	}
}

// capture returns the current generation with its complete store.Index.
// The construction generation carries its per-edge column. A later one's
// edge trussness is the table e.etruss, which the next mutation rewrites in
// place, so the table's entries are copied out under e.mu, where the
// current generation is the one the table belongs to, and ordered into the
// column after the lock is released: mutations wait for one sequential pass
// over the table, not for the sort (or for a lookup per edge, ten times
// the pass on the twitter analog).
func (e *Engine) capture() (*engState, *store.Index) {
	if st := e.st.Load(); st.etruss != nil {
		return st, exportIndex(st, st.etruss)
	}
	e.mu.Lock()
	st := e.st.Load()
	entries := make([]edgeTruss, 0, len(e.etruss))
	for ed, t := range e.etruss {
		entries = append(entries, edgeTruss{uint64(ed.U)<<32 | uint64(ed.V), t})
	}
	e.mu.Unlock()
	return st, exportIndex(st, edgeTrussColumn(entries))
}

// edgeTruss is one entry of the per-edge trussness table, its endpoint pair
// packed so that the packed keys ascend with (U,V).
type edgeTruss struct {
	key uint64
	t   int32
}

// edgeTrussColumn orders the entries of a generation's table into that
// generation's per-edge column. The table holds exactly the generation's
// edges, so ascending (U,V) is the column's order.
func edgeTrussColumn(entries []edgeTruss) []int32 {
	slices.SortFunc(entries, func(a, b edgeTruss) int { return cmp.Compare(a.key, b.key) })
	col := make([]int32, len(entries))
	for i, x := range entries {
		col[i] = x.t
	}
	return col
}

// ExportIndex flattens the engine's precomputed state into a store.Index.
// The returned slices may alias the engine's own and must not be modified.
func (e *Engine) ExportIndex() *store.Index {
	_, idx := e.capture()
	return idx
}

// WriteSnapshot serializes the engine's current graph and precomputed index
// to w in the store snapshot format and reports the graph generation it
// captured. Reopening the stream with NewFromSnapshot yields an engine that
// answers every request identically to this one. The state is captured atomically: a concurrent
// mutation lands either entirely before or entirely after the written
// snapshot, and the returned version is the generation actually written —
// replication bootstrap relies on that pair cohering.
func (e *Engine) WriteSnapshot(w io.Writer) (uint64, error) {
	st, idx := e.capture()
	// Snapshot writing needs the materialized CSR arrays; any other backing
	// is copied to the heap first (a *Graph passes through unchanged).
	return st.version, store.WriteSnapshot(w, graph.CopyStore(st.g), idx)
}

// WriteSnapshotFile writes the snapshot to path atomically (temp file in the
// destination directory, renamed into place only on success, so rewriting
// over a good snapshot can never destroy it) and returns the file size.
func (e *Engine) WriteSnapshotFile(path string) (int64, error) {
	return store.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := e.WriteSnapshot(w)
		return err
	})
}

// NewFromSnapshot builds an Engine directly from a reopened snapshot: the
// graph is adopted as-is and the index section (when present) replaces the
// construction-time core decomposition, metric scan and (when it carries
// the per-edge trussness) the truss decomposition.
func NewFromSnapshot(snap *store.Snapshot, cfg Config) (*Engine, error) {
	if snap == nil {
		return nil, cserr.Invalidf("engine: nil snapshot")
	}
	if snap.Graph == nil {
		return nil, cserr.Invalidf("engine: snapshot has no graph")
	}
	return NewFromIndex(snap.Graph, cfg, snap.Index)
}

// NewFromIndex is the one construction path: it builds the engine's
// complete per-graph state, adopting what idx carries and computing what it
// lacks. With idx nil it scans the attribute metric and decomposes g into
// cores and trusses; otherwise idx's arrays are validated against the graph
// shape and adopted (not copied — the caller must not modify them). A
// missing EdgeTruss (a snapshot written before it was packed: v1, legacy
// compressed, or an older v2) costs the one truss decomposition, and a
// missing NodeTruss is projected from the per-edge trussness. g may be any
// graph.Store backing, most importantly a zero-copy mapped snapshot.
func NewFromIndex(g graph.Store, cfg Config, idx *store.Index) (*Engine, error) {
	if g == nil {
		return nil, cserr.Invalidf("engine: nil graph")
	}
	st := &engState{g: g}
	if idx == nil {
		m, err := attr.NewMetric(g, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		st.metric, st.core = m, kcore.Decompose(g)
	} else if err := adoptIndex(st, cfg, idx); err != nil {
		return nil, err
	}
	if st.etruss == nil {
		// The engine's one truss decomposition of all of g; Decompose's
		// edge IDs are the column's order.
		_, st.etruss = truss.Decompose(g)
	}
	if st.truss == nil {
		st.truss = nodeTruss(g, st.etruss)
	}
	return newEngine(cfg, st), nil
}

// adoptIndex validates idx against st.g and installs its arrays and
// normalization table in st.
func adoptIndex(st *engState, cfg Config, idx *store.Index) error {
	g := st.g
	if len(idx.Coreness) != g.NumNodes() {
		return cserr.Invalidf("engine: index coreness length %d, graph has %d nodes",
			len(idx.Coreness), g.NumNodes())
	}
	if idx.NodeTruss != nil && len(idx.NodeTruss) != g.NumNodes() {
		return cserr.Invalidf("engine: index truss length %d, graph has %d nodes",
			len(idx.NodeTruss), g.NumNodes())
	}
	if idx.EdgeTruss != nil && len(idx.EdgeTruss) != g.NumEdges() {
		return cserr.Invalidf("engine: index edge truss length %d, graph has %d edges",
			len(idx.EdgeTruss), g.NumEdges())
	}
	nz, err := attr.NewNormalizerFromBounds(idx.NormMin, idx.NormMax)
	if err != nil {
		return cserr.Invalidf("engine: %v", err)
	}
	m, err := attr.NewMetricWithNormalizer(g, cfg.Gamma, nz)
	if err != nil {
		return err
	}
	st.metric, st.core, st.truss, st.etruss = m, idx.Coreness, idx.NodeTruss, idx.EdgeTruss
	return nil
}

// nodeTruss projects g's per-edge trussness column onto nodes: each node's
// maximum trussness over its incident edges, 0 for an isolated node.
func nodeTruss(g graph.Adjacency, etruss []int32) []int32 {
	nt := make([]int32, g.NumNodes())
	for i, e := range edges(g) {
		t := etruss[i]
		nt[e.U] = max(nt[e.U], t)
		nt[e.V] = max(nt[e.V], t)
	}
	return nt
}
