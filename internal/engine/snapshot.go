package engine

// Snapshot integration: an Engine's precomputed per-graph state — the core
// and node-truss admission indexes and the attribute-metric normalization
// table — exports as a store.Index so store.WriteSnapshot can persist it, and
// an Engine reopens from a store.Snapshot with zero recomputation: no text
// parse, no min/max attribute scan, no core or truss decomposition at boot.

import (
	"io"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/store"
)

// exportIndex flattens one state generation into a store.Index, building
// the truss-level index first if it was not already so snapshots always
// carry the complete admission state.
func exportIndex(st *engState) *store.Index {
	min, max := st.metric.Normalizer().Bounds()
	return &store.Index{
		Coreness:  st.core,
		NodeTruss: st.nodeTruss(),
		NormMin:   min,
		NormMax:   max,
	}
}

// ExportIndex flattens the engine's precomputed state into a store.Index.
// The returned slices alias the engine's own and must not be modified.
func (e *Engine) ExportIndex() *store.Index {
	return exportIndex(e.st.Load())
}

// WriteSnapshot serializes the engine's current graph and precomputed index
// to w in the store snapshot format (opt.Compress selects delta+varint
// adjacency) and reports the graph generation it captured. Reopening the
// stream with NewFromSnapshot yields an engine that answers every request
// identically to this one. The state is captured atomically: a concurrent
// mutation lands either entirely before or entirely after the written
// snapshot, and the returned version is the generation actually written —
// replication bootstrap relies on that pair cohering.
func (e *Engine) WriteSnapshot(w io.Writer, opt store.PackOptions) (uint64, error) {
	st := e.st.Load()
	// Snapshot writing needs the materialized CSR arrays; a mapped or
	// compressed backing is copied to the heap first (a *Graph passes
	// through unchanged).
	return st.version, store.WriteSnapshot(w, graph.CopyStore(st.g), exportIndex(st), opt)
}

// WriteSnapshotFile writes the snapshot to path atomically (temp file in the
// destination directory, renamed into place only on success, so rewriting
// over a good snapshot can never destroy it) and returns the file size.
func (e *Engine) WriteSnapshotFile(path string, opt store.PackOptions) (int64, error) {
	return store.AtomicWriteFile(path, func(w io.Writer) error {
		_, err := e.WriteSnapshot(w, opt)
		return err
	})
}

// NewFromSnapshot builds an Engine directly from a reopened snapshot: the
// graph is adopted as-is and the index section (when present) replaces the
// construction-time core decomposition, metric scan and truss build.
func NewFromSnapshot(snap *store.Snapshot, cfg Config) (*Engine, error) {
	if snap == nil {
		return nil, cserr.Invalidf("engine: nil snapshot")
	}
	g := snap.Backing()
	if g == nil {
		return nil, cserr.Invalidf("engine: snapshot has no graph backing")
	}
	return NewFromIndex(g, cfg, snap.Index)
}

// NewFromIndex is New with a precomputed index. idx may be nil, which is
// plain New; otherwise its arrays are validated against the graph shape and
// adopted (not copied — the caller must not modify them). g may be any
// graph.Store backing, most importantly a zero-copy mapped snapshot.
func NewFromIndex(g graph.Store, cfg Config, idx *store.Index) (*Engine, error) {
	if idx == nil {
		return New(g, cfg)
	}
	if g == nil {
		return nil, cserr.Invalidf("engine: nil graph")
	}
	if len(idx.Coreness) != g.NumNodes() {
		return nil, cserr.Invalidf("engine: index coreness length %d, graph has %d nodes",
			len(idx.Coreness), g.NumNodes())
	}
	if idx.NodeTruss != nil && len(idx.NodeTruss) != g.NumNodes() {
		return nil, cserr.Invalidf("engine: index truss length %d, graph has %d nodes",
			len(idx.NodeTruss), g.NumNodes())
	}
	nz, err := attr.NewNormalizerFromBounds(idx.NormMin, idx.NormMax)
	if err != nil {
		return nil, cserr.Invalidf("engine: %v", err)
	}
	m, err := attr.NewMetricWithNormalizer(g, cfg.Gamma, nz)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(g, cfg, m, idx.Coreness)
	if err != nil {
		return nil, err
	}
	if idx.NodeTruss != nil {
		e.st.Load().adoptTruss(idx.NodeTruss)
	}
	if cfg.EagerTruss {
		e.st.Load().nodeTruss()
	}
	return e, nil
}
