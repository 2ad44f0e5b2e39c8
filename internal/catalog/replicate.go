package catalog

// Replication hooks: the primary-side primitives of journal-shipping
// replication (internal/cluster layers the HTTP protocol and the follower
// loop on top of them). A follower bootstraps by fetching a full snapshot of
// the dataset's current serving state (ReplicateSnapshot) together with the
// (version, lineage) cursor it captured, then stays caught up by repeatedly
// asking for the journal batches past its cursor (JournalSince) and folding
// them through Catalog.Fold — the scoped cache invalidation of the mutation
// path keeps the replica's caches warm across the stream.
//
// The replication cursor is the engine's graph generation (version), not the
// journal's own sequence number: a compaction resets the journal but never
// the version, so the cursor stays monotonic for as long as the dataset's
// lineage lasts. The journal's numbering is rebased against it — the journal
// record with sequence s describes the batch that produced version base+s,
// where base = version − journal.Seq() — and a cursor that falls outside the
// journal's [base, version] window (compacted past, ahead of the primary, or
// from another lineage entirely) answers ErrResync: the follower's only move
// is a fresh snapshot bootstrap. A Swap starts a new lineage (the swaps
// counter is the lineage token), since journaled deltas of the old lineage
// do not describe the new one.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/mutate"
	"repro/internal/store"
)

// ErrResync reports a replication cursor the primary cannot serve a journal
// tail for: the journal was compacted past it, the cursor is ahead of the
// primary (a primary restart or a stale follower), the dataset's lineage
// changed (Swap), or the journal has a durability hole. The follower must
// bootstrap a fresh snapshot; no journal tail can bridge the gap.
var ErrResync = errors.New("catalog: replication cursor unserviceable; bootstrap a fresh snapshot")

// ReplicationInfo is the replication-relevant state of one mounted dataset:
// the cursor a snapshot fetched now would carry, and the journal window a
// tail can be served from.
type ReplicationInfo struct {
	Graph string `json:"graph"`
	// Version is the engine's graph generation — the replication cursor.
	Version uint64 `json:"version"`
	// Lineage is the dataset's swap count; a journal tail is only valid
	// within one lineage.
	Lineage uint64 `json:"lineage"`
	// Journaled reports whether the dataset mounted with a write-ahead
	// journal; an unjournaled dataset can only be replicated by snapshot.
	Journaled bool `json:"journaled"`
	// JournalSeq and JournalBatches describe the journal since its last
	// compaction; Version − JournalSeq is the oldest cursor a tail serves.
	JournalSeq     uint64 `json:"journal_seq"`
	JournalBatches int    `json:"journal_batches"`
	// Broken marks a journal with a durability hole (an applied batch whose
	// append failed); tails are refused until a compaction heals it.
	Broken bool `json:"broken,omitempty"`
}

// ReplicationInfo describes the named dataset's replication state.
func (c *Catalog) ReplicationInfo(name string) (ReplicationInfo, error) {
	d, err := c.dataset(name)
	if err != nil {
		return ReplicationInfo{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replicationInfoLocked(), nil
}

// ReplicationInfos describes every mounted dataset's replication state,
// sorted by name.
func (c *Catalog) ReplicationInfos() []ReplicationInfo {
	out := make([]ReplicationInfo, 0, c.Len())
	for _, name := range c.Names() {
		if info, err := c.ReplicationInfo(name); err == nil {
			out = append(out, info)
		}
	}
	return out
}

// replicationInfoLocked builds the dataset's ReplicationInfo; the caller
// holds d.mu.
func (d *Dataset) replicationInfoLocked() ReplicationInfo {
	info := ReplicationInfo{
		Graph:   d.name,
		Version: d.eng.Load().Version(),
		Lineage: d.swaps,
	}
	if d.live != nil {
		info.Journaled = true
		info.JournalSeq = d.live.journal.Seq()
		info.JournalBatches = d.live.journal.Batches()
		info.Broken = d.live.broken
	}
	return info
}

// ReplicateSnapshot streams the named dataset's current serving state to w
// in the store snapshot format (the aligned layout, so replicas boot mapped)
// and returns the (version, lineage) cursor the stream captured. The engine
// and lineage are resolved together under the dataset lock, but the write
// itself streams unlocked — mutations keep flowing while a bootstrap is on
// the wire, and the returned version is the generation actually written,
// whatever lands meanwhile.
func (c *Catalog) ReplicateSnapshot(name string, w io.Writer) (version, lineage uint64, err error) {
	d, err := c.dataset(name)
	if err != nil {
		return 0, 0, err
	}
	d.mu.Lock()
	eng := d.eng.Load()
	lineage = d.swaps
	d.mu.Unlock()
	version, err = eng.WriteSnapshot(w)
	return version, lineage, err
}

// VersionedBatch is one journal batch rebased onto the replication cursor:
// applying Deltas to a replica at Version−1 brings it to Version.
type VersionedBatch struct {
	Version uint64         `json:"version"`
	Deltas  []mutate.Delta `json:"deltas"`
}

// JournalSince returns the journal batches that move a replica of the named
// dataset from cursor from (exclusive) toward the current version, plus the
// current version itself. lineage must match the dataset's; an empty slice
// with a nil error means the replica is caught up. Errors wrapping ErrResync
// mean no tail can serve the cursor and the follower must bootstrap a fresh
// snapshot. The journal is read under the dataset lock, so a tail is always
// consistent with the (version, lineage) it reports.
func (c *Catalog) JournalSince(name string, lineage, from uint64) ([]VersionedBatch, uint64, error) {
	d, err := c.dataset(name)
	if err != nil {
		return nil, 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.eng.Load().Version()
	if lineage != d.swaps {
		return nil, cur, fmt.Errorf("%w: lineage %d, dataset %q is on lineage %d",
			ErrResync, lineage, d.name, d.swaps)
	}
	if from == cur {
		return nil, cur, nil // caught up
	}
	if from > cur {
		return nil, cur, fmt.Errorf("%w: cursor %d is ahead of version %d (primary restarted?)",
			ErrResync, from, cur)
	}
	if d.live == nil {
		return nil, cur, fmt.Errorf("%w: dataset %q has no journal to tail", ErrResync, d.name)
	}
	if d.live.broken {
		return nil, cur, fmt.Errorf("%w: journal for %q has a durability hole; compact to heal it",
			ErrResync, d.name)
	}
	seq := d.live.journal.Seq()
	base := cur - seq // version the journal's numbering is rebased at
	if from < base {
		return nil, cur, fmt.Errorf("%w: cursor %d precedes the compacted journal base %d",
			ErrResync, from, base)
	}
	batches, err := store.TailJournal(d.live.journal.Path(), from-base)
	if err != nil {
		return nil, cur, err
	}
	out := make([]VersionedBatch, len(batches))
	for i, b := range batches {
		out[i] = VersionedBatch{Version: base + b.Seq, Deltas: b.Deltas}
	}
	return out, cur, nil
}
