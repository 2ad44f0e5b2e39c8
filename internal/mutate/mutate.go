// Package mutate defines the live-update mutation log of the serving stack:
// typed graph deltas (AddEdge / RemoveEdge / AddNode / SetAttr), a Session
// that applies a batch of deltas to an immutable base graph through a
// graph.Overlay, and *incremental* maintenance of the structural admission
// indexes — coreness and edge trussness — restricted to the affected region
// of the touched endpoints instead of a whole-graph decomposition.
//
// The incremental algorithms implement the classical locality results for
// dynamic cohesive subgraphs:
//
//   - one edge changes any node's coreness by at most 1, and only nodes in
//     the subcore of the endpoints (nodes of coreness r = min coreness of
//     the endpoints, reachable through nodes of coreness r) can change;
//   - one edge changes any edge's trussness by at most 1, and only edges
//     triangle-connected to the mutated edge below a level bound can change
//     (for an insertion, edges of trussness ≥ 2+support(e) are fixed; for a
//     deletion, edges of trussness > truss(e) are fixed).
//
// Both updates therefore traverse only the affected scope and re-peel it
// against a pinned boundary: coreness by one cascading eviction shared by
// insertion and deletion, trussness by truss.Peel, the peel truss.Decompose
// runs over the whole graph. TestIncrementalMatchesScratch proves the result
// equal to a from-scratch decomposition on randomized mutation sequences.
//
// A batch is validated whole before any maintenance runs: a Preflight
// applies every delta group to a throwaway overlay, and a Session then
// applies only admitted groups, so it cannot fail part way and keeps no
// undo log.
package mutate

import (
	"fmt"

	"repro/internal/cserr"
	"repro/internal/graph"
)

// Op names a mutation operation.
type Op int

// Mutation operations. The zero Op is deliberately invalid: a JSON delta
// whose "op" field is omitted (or whose key is misspelled) must be
// rejected, not silently decoded as an edge insertion.
const (
	// OpAddEdge inserts the undirected edge (U,V).
	OpAddEdge Op = iota + 1
	// OpRemoveEdge deletes the undirected edge (U,V).
	OpRemoveEdge
	// OpAddNode appends a node (ID = current NumNodes) with Text/Num attrs.
	OpAddNode
	// OpSetAttr replaces node U's attributes: a non-nil Text replaces the
	// textual set, a non-nil Num replaces the numerical vector.
	OpSetAttr
	numOps
)

var opNames = [numOps]string{
	OpAddEdge:    "add_edge",
	OpRemoveEdge: "remove_edge",
	OpAddNode:    "add_node",
	OpSetAttr:    "set_attr",
}

// String returns the op's wire name.
func (o Op) String() string {
	if o.Valid() {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Valid reports whether o names a registered operation.
func (o Op) Valid() bool { return o >= 1 && o < numOps }

// MarshalText renders the op's wire name so a Delta round-trips through JSON
// (the journal format and the /admin/mutate body).
func (o Op) MarshalText() ([]byte, error) {
	if !o.Valid() {
		return nil, fmt.Errorf("mutate: unknown op %d", int(o))
	}
	return []byte(o.String()), nil
}

// UnmarshalText parses a wire name.
func (o *Op) UnmarshalText(text []byte) error {
	name := string(text)
	for i, n := range opNames {
		if n != "" && n == name {
			*o = Op(i)
			return nil
		}
	}
	return cserr.Invalidf("unknown mutation op %q (want one of %v)", name, opNames[1:])
}

// Delta is one graph mutation. The JSON form is shared by the HTTP wire
// (POST /admin/mutate) and the write-ahead journal (internal/store).
type Delta struct {
	Op Op           `json:"op"`
	U  graph.NodeID `json:"u,omitempty"`
	V  graph.NodeID `json:"v,omitempty"`
	// Text carries textual attributes for AddNode/SetAttr. For SetAttr, nil
	// keeps the current set and an empty non-nil slice clears it, so the
	// JSON form omits only nil: a clear is written as "text":[].
	Text []string `json:"text,omitzero"`
	// Num carries the numerical attribute vector (graph NumDim wide) for
	// AddNode/SetAttr; nil keeps the current vector (all-zero for AddNode).
	Num []float64 `json:"num,omitzero"`
}

// AddEdge returns the delta inserting the undirected edge (u,v).
func AddEdge(u, v graph.NodeID) Delta { return Delta{Op: OpAddEdge, U: u, V: v} }

// RemoveEdge returns the delta deleting the undirected edge (u,v).
func RemoveEdge(u, v graph.NodeID) Delta { return Delta{Op: OpRemoveEdge, U: u, V: v} }

// AddNode returns the delta appending a node with the given attributes.
func AddNode(text []string, num []float64) Delta { return Delta{Op: OpAddNode, Text: text, Num: num} }

// SetAttr returns the delta replacing v's attributes (nil keeps a column).
func SetAttr(v graph.NodeID, text []string, num []float64) Delta {
	return Delta{Op: OpSetAttr, U: v, Text: text, Num: num}
}

// Edge canonically identifies an undirected edge: U < V.
type Edge struct {
	U, V graph.NodeID
}

// EdgeOf returns the canonical Edge for the endpoint pair.
func EdgeOf(u, v graph.NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}
