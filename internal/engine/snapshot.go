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
	"repro/internal/kcore"
	"repro/internal/store"
	"repro/internal/truss"
)

// exportIndex flattens one state generation into a store.Index: the
// complete admission state and the metric's normalization table.
func exportIndex(st *engState) *store.Index {
	min, max := st.metric.Normalizer().Bounds()
	return &store.Index{
		Coreness:  st.core,
		NodeTruss: st.truss,
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
// construction-time core decomposition, metric scan and (when it carries
// one) the truss build.
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

// NewFromIndex is the one construction path: it builds the engine's
// complete per-graph state, adopting what idx carries and computing what it
// lacks. With idx nil it scans the attribute metric and decomposes g into
// cores and trusses; otherwise idx's arrays are validated against the graph
// shape and adopted (not copied — the caller must not modify them), and only
// a missing NodeTruss (a snapshot written before the truss index was always
// packed) is computed. g may be any graph.Store backing, most importantly a
// zero-copy mapped snapshot.
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
	if st.truss == nil {
		st.truss = nodeTruss(g)
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
	nz, err := attr.NewNormalizerFromBounds(idx.NormMin, idx.NormMax)
	if err != nil {
		return cserr.Invalidf("engine: %v", err)
	}
	m, err := attr.NewMetricWithNormalizer(g, cfg.Gamma, nz)
	if err != nil {
		return err
	}
	st.metric, st.core, st.truss = m, idx.Coreness, idx.NodeTruss
	return nil
}

// nodeTruss runs one full truss decomposition of g and projects it onto
// nodes: each node's maximum trussness over its incident edges.
func nodeTruss(g graph.CSR) []int32 {
	ix, tr := truss.Decompose(g)
	nt := make([]int32, g.NumNodes())
	for eid, t := range tr {
		if t > 0 {
			if u := ix.U[eid]; t > nt[u] {
				nt[u] = t
			}
			if v := ix.V[eid]; t > nt[v] {
				nt[v] = t
			}
		}
	}
	return nt
}
