package commit

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cserr"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// echoFlush returns a Flush that answers each group with its own length and
// records every batch it saw.
func echoFlush() (Flush, *[][]int) {
	var mu sync.Mutex
	batches := &[][]int{}
	return func(groups [][]mutate.Delta) []Result {
		sizes := make([]int, len(groups))
		results := make([]Result, len(groups))
		for i, g := range groups {
			sizes[i] = len(g)
			results[i] = Result{Value: len(g)}
		}
		mu.Lock()
		*batches = append(*batches, sizes)
		mu.Unlock()
		return results
	}, batches
}

func deltas(n int) []mutate.Delta {
	ds := make([]mutate.Delta, n)
	for i := range ds {
		ds[i] = mutate.Delta{Op: mutate.OpSetAttr, U: 0, Text: []string{"t"}}
	}
	return ds
}

// TestSubmitReturnsGroupResult proves the basic contract: one Submit, one
// flush, the caller gets its group's Result value and batch stats.
func TestSubmitReturnsGroupResult(t *testing.T) {
	flush, _ := echoFlush()
	b := New(flush)
	defer b.Close()
	val, stats, err := b.Submit(deltas(3))
	if err != nil {
		t.Fatal(err)
	}
	if val.(int) != 3 {
		t.Fatalf("value %v, want the group length 3", val)
	}
	if stats.BatchSize < 1 {
		t.Fatalf("stats must record a batch size: %+v", stats)
	}
	if stats.Enqueued.IsZero() {
		t.Fatalf("stats must carry the enqueue timestamp: %+v", stats)
	}
	s := b.Stats()
	if s.Submitted != 1 || s.Flushes < 1 {
		t.Fatalf("counters: %+v", s)
	}
}

// TestConcurrentSubmitsCoalesce holds the flusher on the first flush while
// companions queue, then verifies a later flush carried more than one group
// — the group-commit effect — and that every caller got exactly its own
// result back.
func TestConcurrentSubmitsCoalesce(t *testing.T) {
	release := make(chan struct{})
	first := true
	var largest atomic.Int64
	b := New(func(groups [][]mutate.Delta) []Result {
		if first {
			first = false // flusher goroutine: no race
			<-release
		}
		if n := int64(len(groups)); n > largest.Load() {
			largest.Store(n)
		}
		results := make([]Result, len(groups))
		for i, g := range groups {
			results[i] = Result{Value: len(g)}
		}
		return results
	})
	defer b.Close()

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	vals := make([]any, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals[w], _, errs[w] = b.Submit(deltas(w + 1))
		}(w)
	}
	// Wait until every writer has enqueued (or is the held flush), then
	// release: everything that queued behind the held flush must coalesce.
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Submitted < writers {
		if time.Now().After(deadline) {
			t.Fatal("writers did not all enqueue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for w := 0; w < writers; w++ {
		if errs[w] != nil {
			t.Fatalf("writer %d: %v", w, errs[w])
		}
		if vals[w].(int) != w+1 {
			t.Fatalf("writer %d got value %v, want its own group length %d", w, vals[w], w+1)
		}
	}
	if largest.Load() < 2 {
		t.Fatalf("no flush coalesced concurrent groups (max batch %d)", largest.Load())
	}
}

// TestMaxBatchCapsFlush holds the flusher while more than maxBatch groups
// queue, then proves no flush ever exceeds maxBatch groups and the backlog
// drains in full batches.
func TestMaxBatchCapsFlush(t *testing.T) {
	release := make(chan struct{})
	first := true
	var largest atomic.Int64
	b := New(func(groups [][]mutate.Delta) []Result {
		if first {
			first = false
			<-release
		}
		if n := int64(len(groups)); n > largest.Load() {
			largest.Store(n) // flusher goroutine: no concurrent writer
		}
		results := make([]Result, len(groups))
		for i := range results {
			results[i] = Result{Value: len(groups[i])}
		}
		return results
	})
	defer b.Close()
	const writers = 2*maxBatch + 1
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() { defer wg.Done(); b.Submit(deltas(1)) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Submitted < writers {
		if time.Now().After(deadline) {
			t.Fatal("writers did not all enqueue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := largest.Load(); got != maxBatch {
		t.Fatalf("largest flush %d groups, want exactly maxBatch=%d", got, maxBatch)
	}
}

// TestQueueFullShedsOverloaded fills the queue behind a blocked flush and
// proves the overflow Submit sheds immediately with cserr.ErrOverloaded —
// and that nothing the batcher acknowledged is lost: every enqueued group
// still commits after the flusher resumes.
func TestQueueFullShedsOverloaded(t *testing.T) {
	// Every flush parks until released, so whatever the flusher took in its
	// first batch, nothing leaves the queue while the test fills it.
	release := make(chan struct{})
	var releaseOnce sync.Once
	entered := make(chan struct{}, 1)
	flush := func(groups [][]mutate.Delta) []Result {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		results := make([]Result, len(groups))
		for i := range results {
			results[i] = Result{Value: true}
		}
		return results
	}
	b := New(flush)
	// Release before Close on every exit path: a Fatalf with the flusher
	// still parked would otherwise deadlock Close.
	t.Cleanup(func() {
		releaseOnce.Do(func() { close(release) })
		b.Close()
	})

	var wg sync.WaitGroup
	acked := make([]error, queueCap+1)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, acked[i] = b.Submit(deltas(1))
		}()
	}
	// Occupy the flusher with the first group alone, then fill all queueCap
	// slots behind it.
	submit(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatalf("flusher never picked up the first group: %+v", b.Stats())
	}
	for i := 1; i <= queueCap; i++ {
		submit(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Submitted < queueCap+1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	_, _, err := b.Submit(deltas(1))
	if !errors.Is(err, cserr.ErrOverloaded) {
		t.Fatalf("overflow Submit: %v, want ErrOverloaded", err)
	}
	if b.Stats().Shed != 1 {
		t.Fatalf("shed counter: %+v", b.Stats())
	}

	releaseOnce.Do(func() { close(release) })
	wg.Wait()
	for i, err := range acked {
		if err != nil {
			t.Fatalf("acknowledged group %d was lost: %v", i, err)
		}
	}
}

// TestDrainWaitsForEnqueued proves Drain returns only after everything
// enqueued before it has flushed.
func TestDrainWaitsForEnqueued(t *testing.T) {
	var flushed atomic.Int64
	release := make(chan struct{})
	first := true
	b := New(func(groups [][]mutate.Delta) []Result {
		if first {
			first = false
			<-release
		}
		flushed.Add(int64(len(groups)))
		results := make([]Result, len(groups))
		for i := range results {
			results[i] = Result{}
		}
		return results
	})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); b.Submit(deltas(1)) }()
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().Submitted < 4 {
		if time.Now().After(deadline) {
			t.Fatal("writers did not all enqueue")
		}
		time.Sleep(time.Millisecond)
	}
	go func() { time.Sleep(5 * time.Millisecond); close(release) }()
	b.Drain()
	if flushed.Load() != 4 {
		t.Fatalf("Drain returned with %d of 4 groups flushed", flushed.Load())
	}
	wg.Wait()
}

// TestCloseFlushesPendingThenRefuses proves Close drains what was
// acknowledged and later Submits fail with ErrClosed.
func TestCloseFlushesPendingThenRefuses(t *testing.T) {
	flush, batches := echoFlush()
	b := New(flush)
	if _, _, err := b.Submit(deltas(2)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if len(*batches) == 0 {
		t.Fatal("the pre-close group never flushed")
	}
	if _, _, err := b.Submit(deltas(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
	if b.Drain(); false {
		t.Fatal("unreachable")
	}
}

// TestFlushLengthMismatchFailsBatch proves a Flush callback returning the
// wrong result count fails every waiter instead of misdelivering.
func TestFlushLengthMismatchFailsBatch(t *testing.T) {
	b := New(func(groups [][]mutate.Delta) []Result {
		return nil // wrong: must be one Result per group
	})
	defer b.Close()
	if _, _, err := b.Submit(deltas(1)); err == nil {
		t.Fatal("mismatched flush result count must fail the waiter")
	}
	if b.Stats().Failures != 1 {
		t.Fatalf("failure counter: %+v", b.Stats())
	}
}

// TestEnqueueFaultSite proves the commit.enqueue fault site fails Submit
// before anything enqueues.
func TestEnqueueFaultSite(t *testing.T) {
	flush, batches := echoFlush()
	b := New(flush)
	defer b.Close()
	faults.Enable(1, faults.Spec{Site: "commit.enqueue", Count: 1, Err: "eio"})
	defer faults.Disable()
	_, _, err := b.Submit(deltas(1))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Submit under commit.enqueue fault: %v", err)
	}
	if b.Stats().Submitted != 0 || len(*batches) != 0 {
		t.Fatalf("a faulted enqueue must not reach the queue: %+v", b.Stats())
	}
}

// TestFlushFaultFailsEveryWaiterClosed proves the commit.flush fault site
// fails the whole batch before the callback runs: every waiter gets the
// error, nothing partially applies.
func TestFlushFaultFailsEveryWaiterClosed(t *testing.T) {
	var ran atomic.Bool
	b := New(func(groups [][]mutate.Delta) []Result {
		ran.Store(true)
		results := make([]Result, len(groups))
		for i := range results {
			results[i] = Result{}
		}
		return results
	})
	defer b.Close()
	faults.Enable(1, faults.Spec{Site: "commit.flush", Count: 3, Err: "eio"})
	defer faults.Disable()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = b.Submit(deltas(1))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("waiter %d: %v, want the injected flush fault", i, err)
		}
	}
	if ran.Load() {
		t.Fatal("the flush callback ran despite the commit.flush fault")
	}
	if got := b.Stats().Failures; got != 3 {
		t.Fatalf("failures %d, want 3", got)
	}
}

// TestSubmittedNeverLostUnderChurn hammers the batcher with more concurrent
// writers than the queue has slots and proves conservation: every Submit
// either sheds (ErrOverloaded, never enqueued) or its group reaches exactly
// one flush.
func TestSubmittedNeverLostUnderChurn(t *testing.T) {
	var delivered atomic.Int64
	b := New(func(groups [][]mutate.Delta) []Result {
		delivered.Add(int64(len(groups)))
		results := make([]Result, len(groups))
		for i := range results {
			results[i] = Result{}
		}
		return results
	})
	const writers, perWriter = queueCap + maxBatch, 5
	var accepted, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, _, err := b.Submit(deltas(1))
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, cserr.ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("writer %d: unexpected error %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.Close()
	if got, want := delivered.Load(), accepted.Load(); got != want {
		t.Fatalf("flushed %d groups, acknowledged %d — conservation violated (shed %d)",
			got, want, shed.Load())
	}
	if total := accepted.Load() + shed.Load(); total != writers*perWriter {
		t.Fatalf("accounted %d of %d submits", total, writers*perWriter)
	}
}

// TestStatsSummaryShape sanity-checks the JSON digest wiring.
func TestStatsSummaryShape(t *testing.T) {
	flush, _ := echoFlush()
	b := New(flush)
	defer b.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := b.Submit(deltas(1)); err != nil {
			t.Fatal(err)
		}
	}
	s := b.Stats().Summary()
	if s.Submitted != 5 || s.BatchMean < 1 || s.QueueWait.Count != 5 || s.FlushLat.Count == 0 {
		t.Fatalf("summary: %+v", s)
	}
	if fmt.Sprint(s.BatchMax) == "" {
		t.Fatal("unreachable")
	}
}
