package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
	"repro/internal/store"
	"repro/internal/truss"
)

// scratchNodeTruss is the reference node-truss index: each node's maximum
// trussness over its incident edges, from one full decomposition of g.
func scratchNodeTruss(g graph.Adjacency) []int32 {
	ix, tr := truss.Decompose(g)
	nt := make([]int32, g.NumNodes())
	for eid, t := range tr {
		nt[ix.U[eid]] = max(nt[ix.U[eid]], t)
		nt[ix.V[eid]] = max(nt[ix.V[eid]], t)
	}
	return nt
}

// TestAdmissionIndexWholeAtConstruction: every construction route yields an
// engine whose node-truss index and per-edge trussness exist and are exact
// before the first request, and mutations maintain the node-truss index
// even when no k-truss query has run.
func TestAdmissionIndexWholeAtConstruction(t *testing.T) {
	d := testDataset(t)
	cfg := DefaultConfig()
	base, err := New(d.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if _, err := base.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	want := scratchNodeTruss(d.Graph)
	_, wantEdges := truss.Decompose(d.Graph)

	routes := []struct {
		name  string
		build func(t *testing.T) *Engine
	}{
		{"new-heap", func(t *testing.T) *Engine {
			e, err := New(d.Graph, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"index-without-truss", func(t *testing.T) *Engine {
			legacy := *base.ExportIndex()
			legacy.NodeTruss, legacy.EdgeTruss = nil, nil
			e, err := NewFromIndex(d.Graph, cfg, &legacy)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"index-without-edge-truss", func(t *testing.T) *Engine {
			legacy := *base.ExportIndex()
			legacy.EdgeTruss = nil
			e, err := NewFromIndex(d.Graph, cfg, &legacy)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"index-without-node-truss", func(t *testing.T) *Engine {
			legacy := *base.ExportIndex()
			legacy.NodeTruss = nil
			e, err := NewFromIndex(d.Graph, cfg, &legacy)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"snapshot-heap", func(t *testing.T) *Engine {
			snap, err := store.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewFromSnapshot(snap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
		{"mounted", func(t *testing.T) *Engine {
			m, err := store.MountGraphFile(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			e, err := NewFromIndex(m.Store, cfg, m.Index)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			idx := r.build(t).ExportIndex()
			if !reflect.DeepEqual(idx.NodeTruss, want) {
				t.Fatalf("node truss differs from a from-scratch decomposition")
			}
			if !reflect.DeepEqual(idx.EdgeTruss, wantEdges) {
				t.Fatalf("edge truss differs from a from-scratch decomposition")
			}
		})
	}

	// An engine that has served only k-core queries still maintains the
	// truss index through every mutation batch.
	e, err := New(d.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range d.QueryNodes(4, 6, 3) {
		req := query.DefaultRequest(q)
		req.Method, req.K = query.MethodStructural, 4
		if _, err := e.Query(ctx, req); err != nil && !errors.Is(err, sea.ErrNoCommunity) {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(26))
	for batch := 0; batch < 20; batch++ {
		g := graph.CopyStore(e.Graph())
		// Distinct edges per batch: a second delta on one edge could be
		// invalid after the first, and a batch is all-or-nothing.
		var deltas []mutate.Delta
		seen := map[mutate.Edge]bool{}
		for len(deltas) < 1+batch%4 {
			dl := randomEngineDelta(rng, g)
			if dl.Op == mutate.OpAddEdge || dl.Op == mutate.OpRemoveEdge {
				ed := mutate.EdgeOf(dl.U, dl.V)
				if seen[ed] {
					continue
				}
				seen[ed] = true
			}
			deltas = append(deltas, dl)
		}
		if _, err := e.Apply(deltas); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		st := e.st.Load()
		if want := scratchNodeTruss(st.g); !reflect.DeepEqual(st.truss, want) {
			t.Fatalf("batch %d: maintained node truss differs from a from-scratch decomposition", batch)
		}
		// A k-truss request one level above q's trussness is an index
		// reject, and an actual search agrees.
		q := graph.NodeID(rng.Intn(st.g.NumNodes()))
		for st.truss[q] < 2 {
			q = (q + 1) % graph.NodeID(st.g.NumNodes())
		}
		treq := query.DefaultRequest(q)
		treq.Method, treq.Model, treq.K = query.MethodStructural, sea.KTruss, int(st.truss[q])+1
		_, qm, err := e.QueryWithMetrics(ctx, treq)
		if !errors.Is(err, sea.ErrNoCommunity) || !qm.IndexHit {
			t.Fatalf("batch %d: truss reject for q=%d K=%d: err=%v metrics=%+v", batch, q, treq.K, err, qm)
		}
		if _, err := query.Run(ctx, st.g, st.metric, treq); !errors.Is(err, sea.ErrNoCommunity) {
			t.Fatalf("batch %d: direct search at q=%d K=%d disagrees with the index: %v", batch, q, treq.K, err)
		}
	}
}

// randomEngineDelta draws one valid mutation against g, weighted toward
// edge insertions so trussness rises as well as falls.
func randomEngineDelta(rng *rand.Rand, g *graph.Graph) mutate.Delta {
	n := g.NumNodes()
	for {
		u := graph.NodeID(rng.Intn(n))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // close a triangle through u
			ns := g.Neighbors(u)
			if len(ns) == 0 {
				continue
			}
			w := ns[rng.Intn(len(ns))]
			ws := g.Neighbors(w)
			v := ws[rng.Intn(len(ws))]
			if v == u || g.HasEdge(u, v) {
				continue
			}
			return mutate.AddEdge(u, v)
		case 5, 6, 7:
			ns := g.Neighbors(u)
			if len(ns) == 0 {
				continue
			}
			return mutate.RemoveEdge(u, ns[rng.Intn(len(ns))])
		case 8:
			return mutate.AddNode([]string{fmt.Sprintf("tok%d", rng.Intn(8))}, []float64{rng.Float64(), rng.Float64()})
		default:
			return mutate.SetAttr(u, []string{fmt.Sprintf("tok%d", rng.Intn(8))}, nil)
		}
	}
}
