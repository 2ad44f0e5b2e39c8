// Package cohesive defines the interface shared by the k-core and k-truss
// maintenance structures. Community-search algorithms peel nodes from a
// cohesive subgraph one at a time; deleting a node may cascade (other nodes
// or edges drop below the structural threshold) and must be reversible so
// that branch-and-bound enumeration can backtrack. Both maintainers roll back
// one way: a removal is a window of one pooled log, and Restore pops the
// most recent (see Maintainer).
package cohesive

import "repro/internal/graph"

// Maintainer maintains a connected cohesive subgraph (a connected k-core or
// k-truss) around a query node under node deletions with rollback.
type Maintainer interface {
	// Query returns the query node the community must contain.
	Query() graph.NodeID
	// Size returns the number of alive nodes.
	Size() int
	// Alive reports whether v is currently in the subgraph.
	Alive(v graph.NodeID) bool
	// Members appends the alive nodes to dst and returns it.
	Members(dst []graph.NodeID) []graph.NodeID
	// RemoveCascade deletes v, cascades structural violations, and restricts
	// the subgraph to the query's connected component. It returns every node
	// removed (v first) and whether the query survived; removing a node that
	// is not alive removes nothing. Every call, whatever it removed, stays
	// open until a Restore undoes it. The removed slice is a capped window
	// of the maintainer's log: it holds what it returned while the call is
	// open, and appending to it never writes into the log.
	RemoveCascade(v graph.NodeID) (removed []graph.NodeID, qAlive bool)
	// Restore undoes the most recent open RemoveCascade, re-inserting what
	// it removed. It panics when no call is open.
	Restore()
}
