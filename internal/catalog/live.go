package catalog

// Live updates through the catalog: a dataset can mount with a write-ahead
// mutation journal (internal/store.Journal). Mutate enqueues a delta group
// on the dataset's group-commit batcher (internal/commit) and waits for its
// flush: concurrent callers coalesce into one staged commit —
//
//	engine   one ApplyGroups folds every group through one incremental
//	         maintenance session and publishes ONE generation;
//	catalog  this file's flushGroups drives the stages under d.mu;
//	journal  one AppendGroups record (one seq, one CRC, one fsync) makes
//	         the whole batch durable;
//	replication  followers see one shipped record per flush, so the
//	         version-per-record cursor math is untouched.
//
// so fsync and the core/truss cascades amortize across the batch, while
// each caller still gets an all-or-nothing verdict for its own group. A
// restart reconstructs the exact live state by replaying the journal on top
// of the last snapshot. A background compactor folds the journal into a
// fresh snapshot (atomic rename) and truncates it, either on demand
// (Compact, POST /admin/compact) or automatically once the journal exceeds
// the dataset's compaction threshold; compaction and hot-swaps drain the
// batcher first so no flush lands astride the journal reset.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/commit"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
)

// DefaultCompactEvery is the journal batch count that triggers background
// compaction on a journaled dataset.
const DefaultCompactEvery = 64

// liveState is the journaling state of a mounted dataset, guarded by the
// dataset's mu.
type liveState struct {
	journal      *store.Journal
	snapPath     string // where Compact writes the folded snapshot
	compactEvery int
	compacting   bool
	compactErr   error // last background compaction failure, cleared on success
	// broken marks a journal with a semantic hole: a batch was applied to
	// the engine but its append failed, so later appends would replay
	// against a state missing it. Mutations fail closed until a compaction
	// rebuilds durability from the live state.
	broken bool
	wg     sync.WaitGroup
}

// MountPathJournaled mounts the dataset file at path with the write-ahead
// journal at journalPath (created when absent), replaying any journaled
// batches on top of the file before the dataset starts serving. It returns
// the mounted dataset and the number of replayed batches.
//
// Compaction folds the journal into a packed snapshot: over path itself
// when it already is one, else alongside it at path+".snap" (the text
// source is never overwritten). The mount prefers that sidecar snapshot
// when it exists — it is what the journal was last truncated against, so
// booting from the text source instead would silently drop every batch a
// compaction folded.
func (c *Catalog) MountPathJournaled(name, path, journalPath string, cfg engine.Config) (*Dataset, int, error) {
	src := path
	if info, err := store.DetectFile(path); err == nil && !info.IsSnapshot() {
		if sidecar := path + ".snap"; fileExists(sidecar) {
			src = sidecar
		}
	}
	eng, mounted, err := c.openPath(src, cfg)
	if err != nil {
		return nil, 0, err
	}
	journal, batches, err := store.OpenJournal(journalPath)
	if err != nil {
		mounted.Close()
		return nil, 0, err
	}
	// Replay applies each batch as an overlay over the mounted base (which
	// may be a zero-copy mapped snapshot — the mutation path never writes
	// the read-only pages) and materializes a new graph per batch that
	// copies only the columns the batch wrote. The others stay shared with
	// the base, mapping included, which is why mounted outlives every
	// generation: it unmaps only at Catalog.Close.
	for _, b := range batches {
		if _, err := eng.Apply(b.Deltas); err != nil {
			journal.Close()
			mounted.Close()
			return nil, 0, fmt.Errorf("%w: journal %s batch %d does not apply to %s: %v",
				cserr.ErrSnapshotCorrupt, journalPath, b.Seq, path, err)
		}
	}
	d, err := c.Mount(name, eng, cfg, src)
	if err != nil {
		journal.Close()
		mounted.Close()
		return nil, 0, err
	}
	snapPath := src
	if info, err := store.DetectFile(src); err != nil || !info.IsSnapshot() {
		snapPath = src + ".snap"
	}
	d.mu.Lock()
	d.live = &liveState{journal: journal, snapPath: snapPath, compactEvery: DefaultCompactEvery}
	d.mounted = mounted
	d.mu.Unlock()
	return d, len(batches), nil
}

// SetCompactEvery sets the journal batch count that triggers background
// compaction (≤0 disables automatic compaction). No-op on an unjournaled
// dataset.
func (d *Dataset) SetCompactEvery(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live != nil {
		d.live.compactEvery = n
	}
}

// DeltaOutcome reports one delta of the caller's group in a committed
// flush. A group is all-or-nothing, so on a successful MutateResult every
// outcome is applied; add_node outcomes carry the assigned node ID.
type DeltaOutcome struct {
	Op      string       `json:"op"`
	Applied bool         `json:"applied"`
	NewNode graph.NodeID `json:"new_node,omitempty"`
}

// MutateResult reports one caller's delta group after its commit flush. The
// embedded ApplyResult is batch-level — the flush that carried this group
// may have coalesced others (Groups/GroupsApplied count them, BatchSize the
// callers) — except NewNodes, which is narrowed to the nodes THIS group
// added; Outcomes details the group delta by delta.
type MutateResult struct {
	Graph string `json:"graph"`
	engine.ApplyResult
	// Outcomes is the per-delta verdict for the caller's own group.
	Outcomes []DeltaOutcome `json:"outcomes,omitempty"`
	// Journaled is the journal sequence number of the commit record that
	// carried this group (0 when the dataset has no journal). Groups that
	// flushed together share one record — one seq, one CRC, one fsync.
	Journaled uint64 `json:"journaled,omitempty"`
	// JournalError reports a batch that is live on the engine but could
	// not be made durable (journal append failed): retrying the mutation
	// would double-apply it — compact instead, which restores durability
	// from the live state.
	JournalError string `json:"journal_error,omitempty"`
	// Compacting reports that this batch tipped the journal over its
	// threshold and a background compaction started.
	Compacting bool `json:"compacting,omitempty"`
	// JournalNS is the durability stage: the whole journal append (marshal,
	// write, fsync). JournalFsyncNS is the fsync alone — the storage-latency
	// component. Both are 0 on an unjournaled dataset. Together with
	// ApplyNS/InvalidateNS from the embedded ApplyResult, the write path's
	// latency decomposes stage by stage.
	JournalNS      int64 `json:"journal_ns,omitempty"`
	JournalFsyncNS int64 `json:"journal_fsync_ns,omitempty"`
	// BatchSize is how many callers' groups the flush coalesced (1 = this
	// group flushed alone); QueueNS is the wait from enqueue to flush
	// start; FlushNS is the whole flush (apply + journal + fan-out).
	BatchSize int   `json:"batch_size,omitempty"`
	QueueNS   int64 `json:"queue_ns,omitempty"`
	FlushNS   int64 `json:"flush_ns,omitempty"`
}

// Mutate applies one delta group to the named dataset and journals it
// durably (when the dataset is journaled) before returning. It enqueues the
// group on the dataset's group-commit batcher and waits for its flush;
// groups from concurrent callers coalesce into one commit, each keeping its
// own all-or-nothing verdict. A full commit queue sheds with
// cserr.ErrOverloaded (HTTP 429 + Retry-After; the group was never
// enqueued, safe to retry). Queries keep flowing throughout, and the engine
// is never hot-swapped — that is the point.
func (c *Catalog) Mutate(name string, deltas []mutate.Delta) (*MutateResult, error) {
	d, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	val, stats, err := d.commit.Submit(deltas)
	res, _ := val.(*MutateResult)
	if res != nil {
		res.BatchSize = stats.BatchSize
		res.QueueNS = stats.QueueNS
		res.FlushNS = stats.FlushNS
	}
	if errors.Is(err, commit.ErrClosed) {
		// The dataset unmounted between lookup and enqueue.
		err = fmt.Errorf("%w: %q", cserr.ErrUnknownGraph, name)
	}
	return res, err
}

// Fold applies one delta group directly — no batcher, no coalescing: one
// engine generation and one journal record for exactly this group. It is
// the replication fold: a follower replays shipped journal records, and
// each record must advance the version by exactly 1 to keep the
// record-per-version cursor math true; letting follower folds coalesce
// would break that invariant.
func (c *Catalog) Fold(name string, deltas []mutate.Delta) (*MutateResult, error) {
	d, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	results := c.flushGroups(d, [][]mutate.Delta{deltas})
	res, _ := results[0].Value.(*MutateResult)
	return res, results[0].Err
}

// flushGroups is the dataset's commit.Flush callback: it drives one
// coalesced batch through the staged pipeline under d.mu — engine
// (ApplyGroups publishes ONE generation), journal (AppendGroups writes ONE
// record), compaction trigger — and maps each group's outcome to its
// waiter. It runs on the batcher's flusher goroutine, serialized with every
// other flush of the dataset.
func (c *Catalog) flushGroups(d *Dataset, groups [][]mutate.Delta) []commit.Result {
	results := make([]commit.Result, len(groups))
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live != nil && d.live.broken {
		// A previous batch is live but missing from the journal; appending
		// more would create a replayable journal with a semantic hole
		// (contiguous sequence numbers, missing state). Fail closed until a
		// compaction rebuilds durability from the live state.
		err := fmt.Errorf("%w: journal for %q is missing an applied batch; compact to restore durability",
			cserr.ErrSnapshotCorrupt, d.name)
		for i := range results {
			results[i] = commit.Result{Err: err}
		}
		return results
	}
	eng := d.eng.Load()
	res, outs, err := eng.ApplyGroups(groups)
	if err != nil {
		// No group applied (the serving state is untouched): rejected
		// groups carry their own error, the rest the batch-level one.
		for i := range results {
			ge := err
			if outs != nil && outs[i].Err != nil {
				ge = outs[i].Err
			}
			results[i] = commit.Result{Err: ge}
		}
		return results
	}

	// Journal only what applied: replay must reproduce exactly the state
	// the engine published, so rejected groups stay out of the record.
	applied := make([][]mutate.Delta, 0, len(groups))
	for i, o := range outs {
		if o.Err == nil && o.Applied {
			applied = append(applied, groups[i])
		}
	}
	var seq uint64
	var journalNS, fsyncNS int64
	var journalErr error
	var compacting bool
	if d.live != nil {
		tJournal := time.Now()
		seq, journalErr = d.live.journal.AppendGroups(applied)
		journalNS = time.Since(tJournal).Nanoseconds()
		if journalErr == nil {
			fsyncNS = d.live.journal.LastSyncNS()
			eng.ObserveJournalAppend(journalNS)
			if d.live.compactEvery > 0 && d.live.journal.Batches() >= d.live.compactEvery && !d.live.compacting {
				d.live.compacting = true
				d.live.wg.Add(1)
				// The goroutine gets the liveState captured under d.mu: a
				// concurrent Unmount may nil d.live, and the compactor must
				// neither dereference that nor fold a journal it no longer
				// owns.
				go c.compactAsync(d, d.live)
				compacting = true
			}
		} else {
			// The whole batch is live but not durable. Fail the dataset's
			// mutations closed and hand every applied waiter its result
			// WITH the error recorded on it: the caller must see what was
			// applied (retrying would double-apply the group) and that
			// compacting restores durability from the live state.
			d.live.broken = true
		}
	}

	for i, o := range outs {
		if o.Err != nil {
			results[i] = commit.Result{Err: o.Err}
			continue
		}
		mr := &MutateResult{Graph: d.name, ApplyResult: *res}
		mr.NewNodes = o.NewNodes
		mr.Outcomes = make([]DeltaOutcome, len(groups[i]))
		nn := 0
		for di, del := range groups[i] {
			mr.Outcomes[di] = DeltaOutcome{Op: del.Op.String(), Applied: true}
			if del.Op == mutate.OpAddNode && nn < len(o.NewNodes) {
				mr.Outcomes[di].NewNode = o.NewNodes[nn]
				nn++
			}
		}
		mr.JournalNS = journalNS
		mr.JournalFsyncNS = fsyncNS
		if journalErr != nil {
			mr.JournalError = journalErr.Error()
			results[i] = commit.Result{Value: mr,
				Err: fmt.Errorf("mutation applied but not journaled: %w", journalErr)}
			continue
		}
		mr.Journaled = seq
		mr.Compacting = compacting
		results[i] = commit.Result{Value: mr}
	}
	return results
}

// CompactResult reports one journal compaction.
type CompactResult struct {
	Graph string `json:"graph"`
	// Path is the snapshot file the journal folded into.
	Path string `json:"path"`
	// Bytes is the written snapshot size.
	Bytes int64 `json:"bytes"`
	// BatchesFolded is the number of journal batches the snapshot absorbed.
	BatchesFolded int `json:"batches_folded"`
	// Version is the engine's graph generation captured by the snapshot.
	Version uint64 `json:"version"`
}

// Compact folds the named dataset's journal into a fresh snapshot (written
// atomically over the dataset's snapshot path) and truncates the journal.
// The serving engine is untouched — compaction changes only what a future
// boot reads. An unjournaled dataset is an error.
func (c *Catalog) Compact(name string) (*CompactResult, error) {
	d, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	// Drain before locking: every group already acknowledged into the
	// commit queue flushes (and journals) first, so the fold below captures
	// it and the journal reset cannot strand an acknowledged-but-unflushed
	// group. Flushes take d.mu, so the drain must finish before we do.
	d.commit.Drain()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

// compactLocked is Compact holding d.mu.
func (d *Dataset) compactLocked() (*CompactResult, error) {
	if d.live == nil {
		return nil, cserr.Invalidf("catalog: dataset %q has no journal to compact", d.name)
	}
	eng := d.eng.Load()
	folded := d.live.journal.Batches()
	size, err := eng.WriteSnapshotFile(d.live.snapPath, d.packOptions())
	if err != nil {
		return nil, err
	}
	if err := d.live.journal.Reset(); err != nil {
		return nil, err
	}
	d.live.broken = false
	d.source = d.live.snapPath
	return &CompactResult{
		Graph: d.name, Path: d.live.snapPath, Bytes: size,
		BatchesFolded: folded, Version: eng.Version(),
	}, nil
}

// compactAsync is the background compactor body; live.compacting is already
// set by the caller. Unlike the explicit Compact, it does not hold d.mu
// across the snapshot write — mutations keep flowing while the fold is on
// disk. The write is optimistic: the engine state and journal batch count
// are captured together under d.mu, the snapshot streams to a temp file
// unlocked, and the rename + journal reset happen back under d.mu only if
// no further batch landed in between (otherwise the temp file is discarded
// and the next threshold crossing retries with the newer state).
func (c *Catalog) compactAsync(d *Dataset, live *liveState) {
	defer live.wg.Done()
	err := c.compactOptimistic(d, live)
	d.mu.Lock()
	live.compactErr = err
	live.compacting = false
	d.mu.Unlock()
}

func (c *Catalog) compactOptimistic(d *Dataset, live *liveState) error {
	d.mu.Lock()
	if d.live != live { // unmounted or swapped since the trigger
		d.mu.Unlock()
		return nil
	}
	eng := d.eng.Load()
	ver := eng.Version()
	snapPath := live.snapPath
	opt := d.packOptions()
	d.mu.Unlock()

	tmp, _, err := store.WriteTemp(snapPath, func(w io.Writer) error {
		_, err := eng.WriteSnapshot(w, opt)
		return err
	})
	if err != nil {
		return err
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	// Staleness is judged by the engine pointer (a Swap installs a new
	// engine) and its monotonic version (a Mutate bumps it) — NOT by the
	// journal batch count, which aliases across a concurrent Reset (an
	// explicit Compact, or a Swap) and could let a stale snapshot fold over
	// durably-acknowledged batches.
	if d.live != live || d.eng.Load() != eng || eng.Version() != ver {
		os.Remove(tmp)
		return nil
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := live.journal.Reset(); err != nil {
		return err
	}
	live.broken = false
	d.source = snapPath
	return nil
}

// fileExists reports whether path names an existing regular file.
func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

// Close releases every dataset's journal and unmaps every snapshot mapping
// — live and retired. Serving must have stopped: no query may still hold an
// engine over a mapped backing. Mount no further datasets after closing;
// in-flight background compactions are waited out.
func (c *Catalog) Close() error {
	c.mu.Lock()
	ds := make([]*Dataset, 0, len(c.datasets))
	for _, d := range c.datasets {
		ds = append(ds, d)
	}
	retired := c.retired
	c.retired = nil
	c.mu.Unlock()
	var errs []string
	for _, d := range ds {
		// Close the batcher first: it flushes everything acknowledged into
		// the queue (flushes take d.mu, so this must precede the lock),
		// then refuses further Submits with commit.ErrClosed.
		d.commit.Close()
		d.mu.Lock()
		live := d.live
		mounted := d.mounted
		d.mounted = nil
		d.mu.Unlock()
		if live != nil {
			live.wg.Wait()
			if err := live.journal.Close(); err != nil {
				errs = append(errs, fmt.Sprintf("%s: %v", d.name, err))
			}
		}
		if err := mounted.Close(); err != nil {
			errs = append(errs, fmt.Sprintf("%s: unmap: %v", d.name, err))
		}
	}
	for _, m := range retired {
		if err := m.Close(); err != nil {
			errs = append(errs, fmt.Sprintf("retired mapping: %v", err))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("catalog: closing: %s", strings.Join(errs, "; "))
	}
	return nil
}
