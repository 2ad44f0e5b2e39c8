// Package cluster turns single-process seaserve instances into a serving
// cluster: journal-shipping replication between a primary and its
// followers, and a router (cmd/searouter) in front of them.
//
// Replication rides the catalog's primary-side hooks (catalog.ReplicateSnapshot,
// catalog.JournalSince) over plain HTTP. A Follower bootstraps each dataset
// by fetching a full snapshot together with its (version, lineage) cursor,
// mounts it journaled in a local replica directory, then tails the
// primary's journal and folds each batch through the catalog's mutation
// path — incremental index maintenance and scoped cache invalidation keep
// the replica's caches warm across the stream, so a promoted follower
// serves at full speed immediately. Any cursor the primary cannot bridge
// with a journal tail (compaction passed it, a swap started a new lineage,
// the primary restarted) answers 410 Gone and the follower re-bootstraps
// from a fresh snapshot; replication is always convergent, never wedged.
//
// The Router sends each /search, /batch and /compare whole to one member of
// the replica set chosen by consistent hashing on the dataset name,
// round-robin, and retries a failed attempt whole on the next member.
// Writes forward to the primary;
// reads go to in-sync replicas only (followers lagging more than MaxLag
// batches drop out of the read set until they catch up). When the primary
// dies the router promotes the most-caught-up follower and re-points the
// rest at it.
package cluster

// Cluster-control endpoints every node serves (NewNodeHandler); the router
// and followers speak exactly these paths.
const (
	// ReplicationPath reports the node's NodeStatus (GET).
	ReplicationPath = "/admin/replication"
	// PromotePath turns a follower into a writable primary (POST). A node
	// that already is one answers 200 without change, so promotion is
	// idempotent.
	PromotePath = "/admin/promote"
	// FollowPath re-points a follower at a new primary (POST
	// {"primary":"http://..."}); it re-bootstraps every dataset from the
	// new upstream. A primary answers 409 — demotion is not a thing, kill
	// the process instead.
	FollowPath = "/admin/follow"
)

// Node roles as reported in NodeStatus.Role.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ReplicaStatus is the replication state of one dataset on one node.
type ReplicaStatus struct {
	Graph string `json:"graph"`
	// Version is the replication cursor the node has applied up to. On the
	// primary this is the dataset's graph generation itself.
	Version uint64 `json:"version"`
	// Lineage is the primary-side lineage token the cursor lives in.
	Lineage uint64 `json:"lineage"`
	// PrimaryVersion is the primary's version as of the follower's last
	// successful poll (0 on the primary itself).
	PrimaryVersion uint64 `json:"primary_version,omitempty"`
	// Lag is max(PrimaryVersion−Version, 0): the batches the follower still
	// has to fold before it is in sync.
	Lag uint64 `json:"lag,omitempty"`
	// JournalSeq is the node's own local journal position (what a follower
	// of this node would tail).
	JournalSeq uint64 `json:"journal_seq,omitempty"`
	// LastError is the most recent replication failure for this dataset,
	// cleared by the next successful sync.
	LastError string `json:"last_error,omitempty"`
}

// NodeStatus is the GET /admin/replication body: the node's role and the
// replication state of every dataset it serves.
type NodeStatus struct {
	Role string `json:"role"`
	// Primary is the upstream a follower replicates from (empty on a
	// primary).
	Primary  string          `json:"primary,omitempty"`
	Datasets []ReplicaStatus `json:"datasets"`
	// SyncFailures is the follower's consecutive failed sync ticks (0 when
	// healthy or primary); SyncBackoffMS is the delay before its next sync
	// attempt — the poll interval while healthy, growing exponentially
	// (jittered, capped) under failures.
	SyncFailures  int   `json:"sync_failures,omitempty"`
	SyncBackoffMS int64 `json:"sync_backoff_ms,omitempty"`
}

// followRequest is the POST /admin/follow body.
type followRequest struct {
	Primary string `json:"primary"`
}
