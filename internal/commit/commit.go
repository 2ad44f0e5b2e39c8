// Package commit implements per-dataset group commit for the write path: a
// Batcher coalesces concurrent mutation requests into one flush — one
// journal record, one incremental-maintenance session, one published engine
// generation — so the fsync and the core/truss promote/demote cascades
// amortize across every caller that arrived while the previous flush was on
// disk.
//
// Submit enqueues one caller's delta group on a queue of queueCap slots and
// blocks on a per-caller result channel until its flush commits. The
// flusher goroutine drains whatever has queued into a batch of at most
// maxBatch groups and flushes it at once: an uncontended caller pays no
// wait, and under concurrency batches grow to whatever queued while the
// previous flush (its fsync) ran — group commit with no added latency.
// A full queue sheds immediately with cserr.ErrOverloaded — the HTTP
// layer's 429 + Retry-After — and a shed request was never enqueued, so
// nothing the batcher acknowledged is ever lost.
//
// The batcher knows nothing about engines or journals: the owner supplies a
// Flush callback that applies one batch and reports one Result per group.
// Fault-injection sites: "commit.enqueue" fails Submit before the request
// enqueues; "commit.flush" fails a whole flush before the callback runs —
// every waiter in the batch fails closed, nothing partially applies.
package commit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cserr"
	"repro/internal/faults"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// The batcher's fixed bounds: groups coalesced into one flush, and submit
// queue slots before backpressure sheds.
const (
	maxBatch = 64
	queueCap = 256
)

// ErrClosed reports a Submit on a closed Batcher (the dataset was unmounted
// or the catalog closed while the request was in flight).
var ErrClosed = errors.New("commit: batcher closed")

// Result is one group's outcome of a flush, as reported by the Flush
// callback: Value is the caller-visible result (may be non-nil even when
// Err is — an applied-but-not-durable group carries both), Err fails the
// group's waiter.
type Result struct {
	Value any
	Err   error
}

// Flush applies one coalesced batch and returns exactly one Result per
// group, index-aligned. It runs on the flusher goroutine, serialized with
// every other flush of the same Batcher.
type Flush func(groups [][]mutate.Delta) []Result

// SubmitStats are the batch-level timings a Submit observed: when its group
// was enqueued, how long it queued before its flush started, how long the
// flush took, and how many groups the flush coalesced.
type SubmitStats struct {
	Enqueued  time.Time
	QueueNS   int64
	FlushNS   int64
	BatchSize int
}

// pending is one enqueued request: a delta group plus the channel its
// result comes back on. A drain sentinel (deltas nil, drained non-nil)
// flushes everything ahead of it and signals instead of expecting a result.
type pending struct {
	deltas  []mutate.Delta
	enq     time.Time
	done    chan submitOutcome
	drained chan struct{}
}

type submitOutcome struct {
	res   Result
	stats SubmitStats
}

// Batcher coalesces Submit calls into group-commit flushes. Create with
// New; Close before discarding (the flusher is a goroutine).
type Batcher struct {
	flush Flush

	mu     sync.RWMutex // guards closed vs. the channel send in Submit
	closed bool
	ch     chan *pending
	done   chan struct{} // closed when the flusher exits

	submitted atomic.Uint64
	shed      atomic.Uint64
	flushes   atomic.Uint64
	failures  atomic.Uint64 // groups whose waiter was failed

	batchSize obs.Histogram // groups per flush
	queueWait obs.Histogram // ns from enqueue to flush start
	flushLat  obs.Histogram // ns per flush (callback duration)
}

// New starts a Batcher flushing through flush.
func New(flush Flush) *Batcher {
	b := &Batcher{
		flush: flush,
		ch:    make(chan *pending, queueCap),
		done:  make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit enqueues one delta group and blocks until its flush commits,
// returning the group's Result value, the batch-level timings, and the
// group's error. A full queue sheds immediately with cserr.ErrOverloaded
// (never enqueued, safe to retry); a closed batcher reports ErrClosed. Once
// enqueued, Submit always returns the flush's verdict — an acknowledged
// group is never dropped.
func (b *Batcher) Submit(deltas []mutate.Delta) (any, SubmitStats, error) {
	if err := faults.Check("commit.enqueue"); err != nil {
		return nil, SubmitStats{}, err
	}
	p := &pending{deltas: deltas, enq: time.Now(), done: make(chan submitOutcome, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return nil, SubmitStats{}, ErrClosed
	}
	select {
	case b.ch <- p:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		b.shed.Add(1)
		return nil, SubmitStats{}, fmt.Errorf("%w (commit queue full at %d)", cserr.ErrOverloaded, queueCap)
	}
	b.submitted.Add(1)
	out := <-p.done
	return out.res.Value, out.stats, out.res.Err
}

// Drain blocks until every request enqueued before the call has flushed.
// Compaction and hot-swaps drain the batcher so no flush lands astride the
// journal reset.
func (b *Batcher) Drain() {
	s := &pending{drained: make(chan struct{})}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		<-b.done // closing drains; wait for the flusher to finish
		return
	}
	b.ch <- s // blocking: a full queue drains ahead of the sentinel
	b.mu.RUnlock()
	<-s.drained
}

// Close stops the batcher: no further Submit is accepted, everything
// already enqueued flushes, then the flusher exits. Idempotent.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	close(b.ch) // buffered requests still drain before the flusher sees EOF
	b.mu.Unlock()
	<-b.done
}

// run is the flusher goroutine: block for the first pending, sweep whatever
// else has queued (up to maxBatch groups, never waiting for more), flush,
// deliver, repeat.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		p, ok := <-b.ch
		if !ok {
			return
		}
		if p.drained != nil {
			close(p.drained)
			continue
		}
		batch := []*pending{p}
		var sentinel *pending
	sweep:
		for len(batch) < maxBatch {
			select {
			case q, ok := <-b.ch:
				if !ok {
					break sweep
				}
				if q.drained != nil {
					sentinel = q
					break sweep
				}
				batch = append(batch, q)
			default:
				break sweep
			}
		}
		b.flushBatch(batch)
		if sentinel != nil {
			close(sentinel.drained)
		}
	}
}

// flushBatch runs one flush and delivers every waiter's result.
func (b *Batcher) flushBatch(batch []*pending) {
	start := time.Now()
	b.batchSize.Observe(int64(len(batch)))
	for _, p := range batch {
		b.queueWait.Observe(start.Sub(p.enq).Nanoseconds())
	}

	var results []Result
	if err := faults.Check("commit.flush"); err != nil {
		// The flush failed before anything could apply: every waiter in the
		// batch fails closed, no group partially applied.
		results = make([]Result, len(batch))
		for i := range results {
			results[i] = Result{Err: fmt.Errorf("commit: flush failed: %w", err)}
		}
	} else {
		groups := make([][]mutate.Delta, len(batch))
		for i, p := range batch {
			groups[i] = p.deltas
		}
		results = b.flush(groups)
		if len(results) != len(batch) {
			err := fmt.Errorf("commit: flush returned %d results for %d groups", len(results), len(batch))
			results = make([]Result, len(batch))
			for i := range results {
				results[i] = Result{Err: err}
			}
		}
	}
	flushNS := time.Since(start).Nanoseconds()
	b.flushLat.Observe(flushNS)
	b.flushes.Add(1)

	for i, p := range batch {
		if results[i].Err != nil {
			b.failures.Add(1)
		}
		p.done <- submitOutcome{
			res: results[i],
			stats: SubmitStats{
				Enqueued:  p.enq,
				QueueNS:   start.Sub(p.enq).Nanoseconds(),
				FlushNS:   flushNS,
				BatchSize: len(batch),
			},
		}
	}
}

// Stats is a point-in-time snapshot of the batcher's counters and
// histograms. The histogram snapshots are exposed on /metrics
// (sea_commit_batch_size, sea_commit_queue_wait_seconds,
// sea_commit_flush_seconds); Summary flattens everything for /stats JSON.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	Shed      uint64 `json:"shed"`
	Flushes   uint64 `json:"flushes"`
	Failures  uint64 `json:"failures"`
	// QueueDepth is the instantaneous submit-queue occupancy.
	QueueDepth int `json:"queue_depth"`

	BatchSize obs.Snapshot `json:"-"` // groups per flush (unit-less)
	QueueWait obs.Snapshot `json:"-"` // ns, enqueue → flush start
	FlushLat  obs.Snapshot `json:"-"` // ns per flush
}

// Stats snapshots the batcher.
func (b *Batcher) Stats() Stats {
	return Stats{
		Submitted:  b.submitted.Load(),
		Shed:       b.shed.Load(),
		Flushes:    b.flushes.Load(),
		Failures:   b.failures.Load(),
		QueueDepth: len(b.ch),
		BatchSize:  b.batchSize.Snapshot(),
		QueueWait:  b.queueWait.Snapshot(),
		FlushLat:   b.flushLat.Snapshot(),
	}
}

// Summary is the JSON digest of Stats for /stats: counters plus batch-size
// distribution and the queue-wait/flush latency percentiles in µs.
type Summary struct {
	Submitted  uint64  `json:"submitted"`
	Shed       uint64  `json:"shed"`
	Flushes    uint64  `json:"flushes"`
	Failures   uint64  `json:"failures,omitempty"`
	QueueDepth int     `json:"queue_depth"`
	BatchMean  float64 `json:"batch_mean"`
	BatchMax   uint64  `json:"batch_max"`

	QueueWait obs.Summary `json:"queue_wait"`
	FlushLat  obs.Summary `json:"flush"`
}

// Summary flattens the snapshot for JSON.
func (s Stats) Summary() Summary {
	return Summary{
		Submitted:  s.Submitted,
		Shed:       s.Shed,
		Flushes:    s.Flushes,
		Failures:   s.Failures,
		QueueDepth: s.QueueDepth,
		BatchMean:  s.BatchSize.Mean(),
		BatchMax:   s.BatchSize.Max(),
		QueueWait:  s.QueueWait.Summary(),
		FlushLat:   s.FlushLat.Summary(),
	}
}
