package cluster

// The follower side of journal-shipping replication: bootstrap every
// dataset from a primary snapshot, then poll the primary's journal and fold
// each batch through the local catalog's mutation path. Folding through
// catalog.Mutate (not a blind engine swap) is the point of the design: the
// replica maintains its indexes incrementally, invalidates caches by scope,
// and journals every batch locally — so a promoted follower is immediately
// a warm, durable, replicable primary.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// DefaultPollEvery is the follower's journal poll interval.
const DefaultPollEvery = 500 * time.Millisecond

// maxBackoffPolls caps the sync-failure backoff at this many poll
// intervals: a follower of a down primary settles at ~30× its poll rate
// instead of hammering, but still notices recovery within seconds.
const maxBackoffPolls = 30

// replica is the follower-side cursor state of one dataset.
type replica struct {
	// lineage is the primary lineage the cursor lives in.
	lineage uint64
	// base rebases the local engine's generation onto the primary cursor:
	// cursor = base + local version. A fresh mount starts at local version
	// 0, so base is simply the snapshot's version; it is recomputed on
	// every bootstrap.
	base uint64
	// primaryVersion is the primary's version at the last successful poll.
	primaryVersion uint64
	lastErr        string
}

// Follower replicates every dataset of a primary into a local catalog.
type Follower struct {
	cat  *catalog.Catalog
	cfg  engine.Config
	dir  string
	poll time.Duration

	mu       sync.Mutex
	primary  string
	client   *Client
	replicas map[string]*replica
	promoted bool
	// syncFails counts consecutive failed sync ticks; backoff is the delay
	// Run is currently waiting (poll while healthy, growing under failures).
	syncFails int
	backoff   time.Duration
}

// NewFollower returns a follower that replicates from the primary at
// primaryURL into cat, keeping its replica snapshots and journals under
// dir. cfg is the engine config replicas mount with; poll ≤ 0 uses
// DefaultPollEvery.
func NewFollower(cat *catalog.Catalog, primaryURL, dir string, cfg engine.Config, poll time.Duration) *Follower {
	if poll <= 0 {
		poll = DefaultPollEvery
	}
	return &Follower{
		cat:      cat,
		cfg:      cfg,
		dir:      dir,
		poll:     poll,
		primary:  primaryURL,
		client:   NewClient(primaryURL, nil),
		replicas: make(map[string]*replica),
	}
}

// Primary is the upstream URL currently replicated from.
func (f *Follower) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}

// Promoted reports whether the follower has been promoted to primary.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// Promote turns the follower into a writable primary: replication stops
// (Run returns at its next tick) and the write fence lifts. The local
// catalog mounted every dataset journaled, so the node can immediately
// serve snapshot bootstraps and journal tails to its own followers.
func (f *Follower) Promote() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.promoted = true
}

// SetPrimary re-points the follower at a new primary. Every dataset
// re-bootstraps from the new upstream on the next tick: cursors from the
// old primary are meaningless against a different node's lineage tokens.
func (f *Follower) SetPrimary(url string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primary = url
	f.client = NewClient(url, nil)
	f.replicas = make(map[string]*replica)
}

// snapshot of the mutable state a sync tick works against.
func (f *Follower) state() (*Client, map[string]*replica, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.client, f.replicas, f.promoted
}

// Bootstrap fetches and mounts every dataset the primary serves. Called
// once before Run; Run re-bootstraps on its own whenever a cursor stops
// being serviceable.
func (f *Follower) Bootstrap(ctx context.Context) error {
	client, _, _ := f.state()
	infos, err := client.Graphs(ctx)
	if err != nil {
		return fmt.Errorf("listing primary datasets: %w", err)
	}
	for _, info := range infos {
		if err := f.bootstrapDataset(ctx, client, info.Name); err != nil {
			return fmt.Errorf("bootstrapping %q: %w", info.Name, err)
		}
	}
	return nil
}

// Run polls the primary until ctx is cancelled or the follower is
// promoted. Sync failures are recorded per dataset (visible in Status) and
// retried — a follower never gives up on a live primary — but consecutive
// failures back off exponentially with jitter (capped at maxBackoffPolls ×
// the poll interval) instead of hammering a primary that is down or
// drowning; one successful tick resets the cadence. The jitter spreads a
// fleet of followers that all lost the same primary, so its recovery is not
// met by a synchronized re-bootstrap storm.
func (f *Follower) Run(ctx context.Context) {
	timer := time.NewTimer(f.poll)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		if f.Promoted() {
			return
		}
		ok := f.syncOnce(ctx)
		f.mu.Lock()
		if ok {
			f.syncFails = 0
		} else {
			f.syncFails++
		}
		delay := backoffDelay(f.poll, f.syncFails)
		f.backoff = delay
		f.mu.Unlock()
		timer.Reset(delay)
	}
}

// backoffDelay is the wait before the next sync tick after fails
// consecutive failures: poll × 2^fails, capped at maxBackoffPolls × poll,
// with ±25% jitter once backing off.
func backoffDelay(poll time.Duration, fails int) time.Duration {
	if fails <= 0 {
		return poll
	}
	d := poll
	for i := 0; i < fails && d < maxBackoffPolls*poll; i++ {
		d *= 2
	}
	if d > maxBackoffPolls*poll {
		d = maxBackoffPolls * poll
	}
	return jitter(d)
}

// jitter spreads d into [0.75d, 1.25d): enough to decorrelate a fleet of
// clients retrying against the same node, small enough that caps stay
// meaningful.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// SyncBackoff reports the follower's current retry cadence: the delay before
// the next sync tick and the consecutive-failure count driving it.
func (f *Follower) SyncBackoff() (time.Duration, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.backoff <= 0 {
		return f.poll, f.syncFails
	}
	return f.backoff, f.syncFails
}

// syncOnce advances every dataset by one poll: ask the primary where it is,
// bootstrap datasets this follower has never seen (or whose lineage
// changed), and tail the journal for the ones that lag. It reports whether
// the whole tick succeeded; any failure (status poll, bootstrap, catch-up)
// makes the tick a failure and feeds Run's backoff.
func (f *Follower) syncOnce(ctx context.Context) bool {
	client, replicas, promoted := f.state()
	if promoted {
		return true
	}
	status, err := client.Status(ctx)
	if err != nil {
		f.mu.Lock()
		for _, r := range f.replicas {
			r.lastErr = fmt.Sprintf("polling primary: %v", err)
		}
		f.mu.Unlock()
		return false
	}
	ok := true
	for _, ds := range status.Datasets {
		f.mu.Lock()
		r := replicas[ds.Graph]
		f.mu.Unlock()
		if r == nil || r.lineage != ds.Lineage {
			if err := f.bootstrapDataset(ctx, client, ds.Graph); err != nil {
				f.setErr(ds.Graph, fmt.Sprintf("bootstrap: %v", err))
				ok = false
			}
			continue
		}
		if err := f.catchUp(ctx, client, ds.Graph, r, ds.Version); err != nil {
			f.setErr(ds.Graph, err.Error())
			ok = false
		}
	}
	return ok
}

// catchUp tails the primary's journal for one dataset until the cursor
// reaches primaryVersion (as of this poll). A cursor the primary cannot
// serve triggers a fresh bootstrap.
func (f *Follower) catchUp(ctx context.Context, client *Client, name string, r *replica, primaryVersion uint64) error {
	cursor, err := f.cursor(name, r)
	if err != nil {
		return err
	}
	f.mu.Lock()
	r.primaryVersion = primaryVersion
	r.lastErr = ""
	f.mu.Unlock()
	if cursor >= primaryVersion {
		return nil
	}
	tail, err := client.JournalSince(ctx, name, r.lineage, cursor)
	if err != nil {
		if isResync(err) {
			if berr := f.bootstrapDataset(ctx, client, name); berr != nil {
				return fmt.Errorf("re-bootstrap after %v: %w", err, berr)
			}
			return nil
		}
		return fmt.Errorf("tailing journal: %w", err)
	}
	for _, b := range tail.Batches {
		if b.Version != cursor+1 {
			// The tail skips or repeats a generation — the journal moved
			// under us in a way the protocol does not explain. Resync.
			if berr := f.bootstrapDataset(ctx, client, name); berr != nil {
				return fmt.Errorf("re-bootstrap after out-of-order batch %d (cursor %d): %w",
					b.Version, cursor, berr)
			}
			return nil
		}
		// Fold, not Mutate: a shipped record must advance the local version
		// by exactly 1 to keep the record-per-version cursor math true, so
		// the fold bypasses the group-commit batcher — the primary already
		// coalesced, and the record is replayed atomically as one batch.
		if _, err := f.cat.Fold(name, b.Deltas); err != nil {
			return fmt.Errorf("applying batch %d: %w", b.Version, err)
		}
		cursor = b.Version
	}
	f.mu.Lock()
	r.primaryVersion = tail.Version
	f.mu.Unlock()
	return nil
}

// bootstrapDataset fetches a fresh snapshot of name from the primary and
// (re)mounts it journaled in the replica directory, resetting the dataset's
// cursor to the snapshot's.
func (f *Follower) bootstrapDataset(ctx context.Context, client *Client, name string) error {
	snapPath := filepath.Join(f.dir, sanitizeName(name)+".replica.snap")
	jrnlPath := filepath.Join(f.dir, sanitizeName(name)+".replica.journal")
	meta, err := client.FetchSnapshot(ctx, name, snapPath)
	if err != nil {
		return err
	}
	if f.mounted(name) {
		// SwapPath keeps the journaled mount and resets the local journal —
		// deltas journaled against the old snapshot do not describe the new
		// one.
		if _, err := f.cat.SwapPath(name, snapPath, f.cfg); err != nil {
			return err
		}
	} else {
		// A journal left over from an earlier follower life would replay
		// over the fresh snapshot; it describes a state that no longer
		// exists.
		os.Remove(jrnlPath)
		if _, _, err := f.cat.MountPathJournaled(name, snapPath, jrnlPath, f.cfg); err != nil {
			return err
		}
	}
	local, err := f.cat.ReplicationInfo(name)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.replicas[name] = &replica{
		lineage:        meta.Lineage,
		base:           meta.Version - local.Version,
		primaryVersion: meta.Version,
	}
	f.mu.Unlock()
	return nil
}

// cursor is the primary-side generation the local replica has applied up
// to: the snapshot's base plus every batch folded since.
func (f *Follower) cursor(name string, r *replica) (uint64, error) {
	info, err := f.cat.ReplicationInfo(name)
	if err != nil {
		return 0, err
	}
	return r.base + info.Version, nil
}

func (f *Follower) mounted(name string) bool {
	for _, n := range f.cat.Names() {
		if n == name {
			return true
		}
	}
	return false
}

func (f *Follower) setErr(name, msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r := f.replicas[name]; r != nil {
		r.lastErr = msg
	}
}

// Status reports the follower's replication state, sorted by dataset name.
func (f *Follower) Status() []ReplicaStatus {
	f.mu.Lock()
	snap := make(map[string]replica, len(f.replicas))
	for name, r := range f.replicas {
		snap[name] = *r
	}
	f.mu.Unlock()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ReplicaStatus, 0, len(names))
	for _, name := range names {
		r := snap[name]
		st := ReplicaStatus{
			Graph:          name,
			Lineage:        r.lineage,
			PrimaryVersion: r.primaryVersion,
			LastError:      r.lastErr,
		}
		if info, err := f.cat.ReplicationInfo(name); err == nil {
			st.Version = r.base + info.Version
			st.JournalSeq = info.JournalSeq
		}
		if r.primaryVersion > st.Version {
			st.Lag = r.primaryVersion - st.Version
		}
		out = append(out, st)
	}
	return out
}

// sanitizeName maps a dataset name onto a filesystem-safe file stem.
func sanitizeName(name string) string {
	out := []byte(name)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// isResync reports whether err asks for a snapshot re-bootstrap.
func isResync(err error) bool {
	return errors.Is(err, catalog.ErrResync)
}
