package catalog

// Group-commit write-path tests at the catalog layer: concurrent-writer
// equivalence (run with -race), backpressure, batch observability, the
// follower Fold path, and the quarantine semantics of a flush whose journal
// append fails.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/commit"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
)

// engineSnapshot serializes a dataset's serving state; the version is not
// part of the snapshot bytes, so a batched and a sequential history of the
// same deltas compare byte for byte.
func engineSnapshot(t *testing.T, c *Catalog, name string) []byte {
	t.Helper()
	eng, err := c.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentWritersEquivalentToSequential is the tentpole equivalence
// proof: N concurrent writers through the batcher land an engine
// byte-identical to the same deltas replayed sequentially from the journal
// — whatever order and batching the commit pipeline chose, the journal IS
// that order, and replay reproduces the state exactly.
func TestConcurrentWritersEquivalentToSequential(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := c.Mutate("g", []mutate.Delta{
					mutate.SetAttr(graph.NodeID(w%12), []string{fmt.Sprintf("w%d-%d", w, i)}, nil),
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := engineSnapshot(t, c, "g")

	// Replay the journal — the committed order — sequentially onto a fresh
	// mount of the same base snapshot.
	replayed, err := store.TailJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := New()
	defer ref.Close()
	if _, err := ref.MountPath("ref", snapPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	refEng, err := ref.Resolve("ref")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range replayed {
		if _, err := refEng.Apply(b.Deltas); err != nil {
			t.Fatalf("sequential replay of batch %d: %v", b.Seq, err)
		}
		total += len(b.Deltas)
	}
	if total != writers*perWriter {
		t.Fatalf("journal carries %d deltas, want %d — an acknowledged delta is missing", total, writers*perWriter)
	}
	want := engineSnapshot(t, ref, "ref")
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent batched writers diverged from sequential journal replay")
	}
}

// TestMutateBatchObservability proves the result carries the group-commit
// accounting (batch size, stage timings, per-delta outcomes) and that the
// dataset Info exposes the batcher's stats.
func TestMutateBatchObservability(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	res, err := c.Mutate("g", []mutate.Delta{
		mutate.SetAttr(0, []string{"x"}, nil),
		mutate.AddNode([]string{"n"}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize < 1 || res.FlushNS <= 0 {
		t.Fatalf("batch accounting missing: %+v", res)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes: %+v", res.Outcomes)
	}
	if res.Outcomes[0].Op != "set_attr" || !res.Outcomes[0].Applied {
		t.Fatalf("outcome 0: %+v", res.Outcomes[0])
	}
	if res.Outcomes[1].Op != "add_node" || res.Outcomes[1].NewNode != 12 {
		t.Fatalf("outcome 1 must carry the assigned node: %+v", res.Outcomes[1])
	}
	if res.JournalNS <= 0 || res.Journaled == 0 {
		t.Fatalf("journal stage timings: %+v", res)
	}
	info, err := c.InfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Commit.Submitted != 1 || info.Commit.Flushes < 1 {
		t.Fatalf("Info.Commit: %+v", info.Commit)
	}
}

// TestCommitBackpressureSheds proves the bounded queue: with the flusher
// held on a delayed flush and every queue slot taken behind it, the next
// Mutate sheds with ErrOverloaded (the HTTP 429 + Retry-After error) while
// every acknowledged group still commits — never losing an acknowledged
// delta.
func TestCommitBackpressureSheds(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The first flush sleeps `hold` before it runs; the queue fills behind it.
	const hold = 2 * time.Second
	const queueCap = 256 // the commit package's fixed queue bound
	faults.Enable(1, faults.Spec{Site: "commit.flush", Count: 1, Delay: hold})
	defer faults.Disable()
	deadline := time.Now().Add(hold)
	waitFor := func(what string, cond func(commit.Stats) bool) {
		t.Helper()
		for !cond(d.commit.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s before the held flush resumed: %+v", what, d.commit.Stats())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed error
	submitted := 0
	write := func() {
		w := submitted
		submitted++
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Mutate("g", []mutate.Delta{
				mutate.SetAttr(graph.NodeID(w%12), []string{fmt.Sprintf("bp%d", w)}, nil),
			})
			if err != nil {
				mu.Lock()
				failed = err
				mu.Unlock()
			}
		}()
		waitFor("a writer did not enqueue", func(s commit.Stats) bool { return s.Submitted == uint64(submitted) })
	}
	// The flusher takes the first group and parks; then writers enqueue one
	// at a time until every slot is taken (a writer swept into the first
	// batch frees its slot for the next).
	write()
	waitFor("the flusher did not take the first group", func(s commit.Stats) bool { return s.QueueDepth == 0 })
	for d.commit.Stats().QueueDepth < queueCap {
		write()
	}

	if _, err := c.Mutate("g", attrDelta("overflow")); !errors.Is(err, cserr.ErrOverloaded) {
		t.Fatalf("Mutate on a full commit queue: %v, want ErrOverloaded", err)
	}
	wg.Wait()
	if failed != nil {
		t.Fatalf("an enqueued writer failed: %v", failed)
	}

	// Conservation: every acknowledged group is in the journal.
	replayed, err := store.TailJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range replayed {
		total += len(b.Deltas)
	}
	if total != submitted {
		t.Fatalf("journal has %d deltas, %d were acknowledged", total, submitted)
	}
}

// TestFoldBypassesBatcher proves the follower path: Fold applies exactly
// one group as one generation and one journal record, and the version
// advances by exactly 1 per fold — the record-per-version cursor invariant.
func TestFoldBypassesBatcher(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		res, err := c.Fold("g", []mutate.Delta{
			mutate.SetAttr(0, []string{fmt.Sprintf("fold%d", i)}, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != uint64(i) {
			t.Fatalf("fold %d: version %d — Fold must advance exactly 1 per record", i, res.Version)
		}
		if res.Journaled != uint64(i) {
			t.Fatalf("fold %d: journal seq %d", i, res.Journaled)
		}
	}
	// Folds bypass the batcher entirely.
	info, err := c.InfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Commit.Submitted != 0 {
		t.Fatalf("Fold must not enqueue on the batcher: %+v", info.Commit)
	}
}

// TestGroupRejectionIsolatedFromCompanions proves per-group isolation
// through the full catalog path: a writer whose group is invalid gets its
// own error, concurrent valid writers commit, and the journal records only
// what applied.
func TestGroupRejectionIsolatedFromCompanions(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	const writers = 12
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var d mutate.Delta
			if w%3 == 0 {
				d = mutate.AddEdge(0, 1) // exists in the fixture: always rejected
			} else {
				d = mutate.SetAttr(graph.NodeID(w), []string{"iso"}, nil)
			}
			_, errs[w] = c.Mutate("g", []mutate.Delta{d})
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		if w%3 == 0 {
			if !errors.Is(errs[w], cserr.ErrInvalidRequest) {
				t.Fatalf("invalid writer %d: %v, want its own rejection", w, errs[w])
			}
		} else if errs[w] != nil {
			t.Fatalf("valid writer %d must not be poisoned by a companion: %v", w, errs[w])
		}
	}
	replayed, err := store.TailJournal(journalPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, b := range replayed {
		total += len(b.Deltas)
	}
	if want := writers - writers/3; total != want {
		t.Fatalf("journal has %d deltas, want only the %d applied", total, want)
	}
}

// TestFlushJournalFaultQuarantinesEveryWaiter proves the PR 5/9 quarantine
// semantics survive group commit: when the flush's single journal append
// fails, EVERY waiter in the batch gets the applied-but-not-durable error
// with its result attached, the dataset fails closed, and Compact heals.
func TestFlushJournalFaultQuarantinesEveryWaiter(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	faults.Enable(1, faults.Spec{Site: "journal.fsync", Count: 1, Err: "eio"})
	defer faults.Disable()
	res, err := c.Mutate("g", attrDelta("torn"))
	if err == nil || !strings.Contains(err.Error(), "applied but not journaled") {
		t.Fatalf("Mutate with failing fsync: %v", err)
	}
	if res == nil || res.JournalError == "" || res.Applied == 0 {
		t.Fatalf("the waiter must see its applied-but-not-durable result: %+v", res)
	}

	// Quarantined: the next flush fails closed before applying anything.
	if _, err := c.Mutate("g", attrDelta("after")); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
		t.Fatalf("quarantined dataset: %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := c.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", attrDelta("healed")); err != nil {
		t.Fatalf("Mutate after Compact healed: %v", err)
	}
}

// TestCommitEnqueueFaultSheds proves the commit.enqueue fault site surfaces
// through Catalog.Mutate before anything enqueues or applies.
func TestCommitEnqueueFaultSheds(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	faults.Enable(1, faults.Spec{Site: "commit.enqueue", Count: 1, Err: "eio"})
	defer faults.Disable()
	if _, err := c.Mutate("g", attrDelta("x")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Mutate under commit.enqueue fault: %v", err)
	}
	// Nothing enqueued, nothing applied: the next write proceeds normally.
	faults.Disable()
	if res, err := c.Mutate("g", attrDelta("y")); err != nil || res.Version != 1 {
		t.Fatalf("after a faulted enqueue: res=%+v err=%v", res, err)
	}
}

// TestCommitFlushFaultFailsBatchClosed proves the commit.flush fault site
// fails every waiter before the staged pipeline runs: no state change, no
// journal record, no quarantine — retry succeeds.
func TestCommitFlushFaultFailsBatchClosed(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	faults.Enable(1, faults.Spec{Site: "commit.flush", Count: 1, Err: "eio"})
	defer faults.Disable()
	if _, err := c.Mutate("g", attrDelta("x")); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Mutate under commit.flush fault: %v", err)
	}
	faults.Disable()
	res, err := c.Mutate("g", attrDelta("y"))
	if err != nil {
		t.Fatalf("retry after a failed flush must succeed (nothing applied): %v", err)
	}
	if res.Version != 1 || res.Journaled != 1 {
		t.Fatalf("the failed flush leaked state: %+v", res)
	}
}

// TestUnmountClosesBatcher proves an in-flight dataset teardown maps to
// the unknown-graph error, not a hang or a panic.
func TestUnmountClosesBatcher(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	d, err := c.dataset("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Unmount("g"); err != nil {
		t.Fatal(err)
	}
	// The batcher is closed: a straggler holding the old dataset pointer
	// cannot enqueue, and Catalog.Mutate reports the unmounted name.
	if _, _, err := d.commit.Submit(attrDelta("late")); !errors.Is(err, commit.ErrClosed) {
		t.Fatalf("Submit on an unmounted dataset's batcher: %v", err)
	}
	if _, err := c.Mutate("g", attrDelta("late")); !errors.Is(err, cserr.ErrUnknownGraph) {
		t.Fatalf("Mutate after unmount: %v", err)
	}
}

// TestCompactDrainsAcknowledgedWrites proves Compact's drain: groups
// acknowledged before the compaction call are folded into the snapshot it
// writes, never stranded behind the journal reset.
func TestCompactDrainsAcknowledgedWrites(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	const writers = 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := c.Mutate("g", attrDelta(fmt.Sprintf("pre%d", w))); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	res, err := c.Compact("g")
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != c.mustInfo(t, "g").Version {
		t.Fatalf("compaction snapshot at version %d, live at %d", res.Version, c.mustInfo(t, "g").Version)
	}
	// Reboot from the compacted snapshot + (empty) journal: same state.
	before := engineSnapshot(t, c, "g")
	c2 := New()
	defer c2.Close()
	if _, replayed, err := c2.MountPathJournaled("g2", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if replayed != 0 {
		t.Fatalf("journal should be empty after compaction, replayed %d", replayed)
	}
	if !bytes.Equal(before, engineSnapshot(t, c2, "g2")) {
		t.Fatal("restart after compaction diverged from the live state")
	}
}

// mustInfo fetches a dataset's Info or fails the test.
func (c *Catalog) mustInfo(t *testing.T, name string) Info {
	t.Helper()
	info, err := c.InfoFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return info
}
