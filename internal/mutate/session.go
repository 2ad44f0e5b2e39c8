package mutate

import (
	"repro/internal/cserr"
	"repro/internal/graph"
)

// Session applies one batch of deltas to an immutable base graph. It owns a
// graph.Overlay holding the accumulated structural/attribute deltas, a
// working copy of the coreness array, and the per-edge trussness table,
// both maintained *incrementally* per delta: every Apply
// re-computes only the affected scope of the touched endpoints (see the
// package comment for the locality results).
//
// The session writes the adopted trussness table in place and keeps no undo
// log, so a batch is all-or-nothing only when a Preflight has admitted it
// first: applyOverlay is then the one step of Apply that can fail, and it
// already succeeded on the same base. Apply rejects an invalid delta before
// it touches anything, but the deltas applied before it stay applied.
//
// A Session is not safe for concurrent use; the Engine serializes mutation
// batches under its own lock.
type Session struct {
	ov   *graph.Overlay
	core []int32 // working coreness copy, post-mutation

	// etruss is the per-edge trussness table, adopted (not copied) from the
	// caller and mutated in place.
	etruss map[Edge]int32

	structural map[graph.NodeID]struct{} // endpoints + index-changed nodes
	attr       map[graph.NodeID]struct{} // nodes whose attributes changed
	trussDirty map[graph.NodeID]struct{} // nodes whose incident-edge truss set changed
	newNodes   []graph.NodeID
	applied    int

	nbuf, nbuf2 []graph.NodeID // neighbor-list scratch
	common      []graph.NodeID // commonNeighbors' result
}

// NewSession starts a mutation session over base, which may be any immutable
// graph.Store backing (heap CSR or mapped snapshot).
// core is the base graph's coreness (copied); etruss is the base graph's
// per-edge trussness table, which must be non-nil: the session adopts it and
// maintains it in place. The engine builds the table once, at its first
// mutation, by keying the per-edge trussness column it was constructed with
// (store.Index.EdgeTruss), and hands the same table to every later session;
// nothing here decomposes the graph.
func NewSession(base graph.Store, core []int32, etruss map[Edge]int32) *Session {
	return &Session{
		ov:         graph.NewOverlay(base),
		core:       append(make([]int32, 0, base.NumNodes()+8), core...),
		etruss:     etruss,
		structural: make(map[graph.NodeID]struct{}),
		attr:       make(map[graph.NodeID]struct{}),
		trussDirty: make(map[graph.NodeID]struct{}),
	}
}

// Overlay returns the session's delta overlay (the post-mutation view).
func (s *Session) Overlay() *graph.Overlay { return s.ov }

// Applied returns the number of deltas applied so far.
func (s *Session) Applied() int { return s.applied }

// NewNodes returns the IDs assigned to AddNode deltas, in apply order.
func (s *Session) NewNodes() []graph.NodeID { return s.newNodes }

// Core returns the post-mutation coreness array. The caller adopts it; the
// session must not be applied to afterwards.
func (s *Session) Core() []int32 { return s.core }

// EdgeTruss returns the post-mutation per-edge trussness table.
func (s *Session) EdgeTruss() map[Edge]int32 { return s.etruss }

// StructuralNodes returns the nodes whose structure or admission-index value
// changed: mutation endpoints, appended nodes, and every node whose coreness
// or incident trussness moved.
func (s *Session) StructuralNodes() []graph.NodeID { return keys(s.structural) }

// AttrNodes returns the nodes whose attributes changed.
func (s *Session) AttrNodes() []graph.NodeID { return keys(s.attr) }

// Materialize folds the session's deltas into a fresh immutable Graph.
func (s *Session) Materialize() *graph.Graph { return s.ov.Materialize() }

// NodeTruss derives the post-mutation node-level truss index (max trussness
// over incident edges) from old, re-scanning only nodes whose incident edge
// set or edge trussness changed. old may be shorter than the new node count
// (appended nodes).
func (s *Session) NodeTruss(old []int32) []int32 {
	nt := make([]int32, s.ov.NumNodes())
	copy(nt, old)
	for v := range s.trussDirty {
		max := int32(0)
		s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], v)
		for _, w := range s.nbuf {
			if t := s.etruss[EdgeOf(v, w)]; t > max {
				max = t
			}
		}
		nt[v] = max
	}
	return nt
}

// applyOverlay validates and applies one delta's overlay edit — the part of
// Apply that can fail. It is shared between the Session (which follows it
// with index maintenance) and the Preflight (which validates whole groups
// against a throwaway overlay before any maintenance runs), so both reject
// exactly the same deltas with exactly the same errors. The returned NodeID
// is the assigned ID of an OpAddNode (0 otherwise). Errors wrap
// cserr.ErrInvalidRequest and leave the overlay as before the call.
func applyOverlay(ov *graph.Overlay, d Delta) (graph.NodeID, error) {
	switch d.Op {
	case OpAddEdge:
		if err := ov.AddEdge(d.U, d.V); err != nil {
			return 0, cserr.Invalidf("%v", err)
		}
	case OpRemoveEdge:
		if err := ov.RemoveEdge(d.U, d.V); err != nil {
			return 0, cserr.Invalidf("%v", err)
		}
	case OpAddNode:
		id, err := ov.AddNode(d.Text, d.Num)
		if err != nil {
			return 0, cserr.Invalidf("%v", err)
		}
		return id, nil
	case OpSetAttr:
		if d.Text == nil && d.Num == nil {
			return 0, cserr.Invalidf("mutate: set_attr on node %d changes nothing", d.U)
		}
		if err := ov.SetAttrs(d.U, d.Text, d.Num); err != nil {
			return 0, cserr.Invalidf("%v", err)
		}
	default:
		return 0, cserr.Invalidf("unknown mutation op %d", int(d.Op))
	}
	return 0, nil
}

// Apply validates and applies one delta, maintaining the coreness and
// trussness tables incrementally. Errors wrap
// cserr.ErrInvalidRequest and leave the session as before the call.
func (s *Session) Apply(d Delta) error {
	// The deletion scope seeds are the triangles through the edge; they
	// must be enumerated before the edge disappears from the overlay.
	var seeds []Edge
	if d.Op == OpRemoveEdge && s.ov.HasEdge(d.U, d.V) {
		for _, z := range s.commonNeighbors(d.U, d.V) {
			seeds = append(seeds, EdgeOf(d.U, z), EdgeOf(d.V, z))
		}
	}
	id, err := applyOverlay(s.ov, d)
	if err != nil {
		return err
	}
	switch d.Op {
	case OpAddEdge:
		s.markStructural(d.U, d.V)
		s.coreInsert(d.U, d.V)
		s.trussInsert(d.U, d.V)
	case OpRemoveEdge:
		s.markStructural(d.U, d.V)
		s.coreRemove(d.U, d.V)
		s.trussRemove(d.U, d.V, seeds)
	case OpAddNode:
		s.core = append(s.core, 0)
		s.newNodes = append(s.newNodes, id)
		s.structural[id] = struct{}{}
		s.attr[id] = struct{}{}
	case OpSetAttr:
		s.attr[d.U] = struct{}{}
	}
	s.applied++
	return nil
}

func (s *Session) markStructural(u, v graph.NodeID) {
	s.structural[u] = struct{}{}
	s.structural[v] = struct{}{}
	s.trussDirty[u] = struct{}{}
	s.trussDirty[v] = struct{}{}
}

// commonNeighbors returns the sorted common neighbors of u and v under the
// overlay. The result aliases session scratch, valid until the next call.
func (s *Session) commonNeighbors(u, v graph.NodeID) []graph.NodeID {
	s.nbuf = s.ov.AppendNeighbors(s.nbuf[:0], u)
	s.nbuf2 = s.ov.AppendNeighbors(s.nbuf2[:0], v)
	out := s.common[:0]
	i, j := 0, 0
	for i < len(s.nbuf) && j < len(s.nbuf2) {
		switch {
		case s.nbuf[i] == s.nbuf2[j]:
			out = append(out, s.nbuf[i])
			i++
			j++
		case s.nbuf[i] < s.nbuf2[j]:
			i++
		default:
			j++
		}
	}
	s.common = out
	return out
}

func keys(m map[graph.NodeID]struct{}) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	return out
}
