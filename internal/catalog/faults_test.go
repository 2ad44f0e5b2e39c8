package catalog

// Fault-injection tests for the durability contract (PR 5's invariant,
// re-proven here under injected failures): a journal append that fails
// leaves the mutation live but the dataset failed CLOSED for further
// writes, and a compaction rebuilds durability from the live state.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// attrDelta is a minimal always-valid mutation batch.
func attrDelta(tag string) []mutate.Delta {
	return []mutate.Delta{{Op: mutate.OpSetAttr, U: 0, Text: []string{tag}}}
}

// TestMutateJournalFaultFailsClosedThenCompactHeals injects a one-shot
// fsync failure into the journal append path and walks the whole
// degradation contract: the failing Mutate reports the batch as applied
// but not durable, further Mutates fail closed, Compact heals, and the
// dataset then accepts writes again.
func TestMutateJournalFaultFailsClosedThenCompactHeals(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}

	faults.Enable(1, faults.Spec{Site: "journal.fsync", Count: 1, Err: "eio"})
	defer faults.Disable()

	// The armed batch: applied to the engine, but the journal fsync dies.
	res, err := c.Mutate("g", attrDelta("torn"))
	if err == nil {
		t.Fatal("Mutate with a failing journal fsync returned no error")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error does not wrap the injected fault: %v", err)
	}
	if res == nil || res.JournalError == "" {
		t.Fatalf("result must carry JournalError (the batch IS live): %+v", res)
	}
	if res.Applied == 0 {
		t.Fatalf("batch should have applied to the live engine: %+v", res)
	}

	// Fail closed: the fault is spent (count:1), but the dataset must still
	// refuse writes — appending more would leave a semantic hole in a
	// replayable journal.
	if _, err := c.Mutate("g", attrDelta("after")); err == nil {
		t.Fatal("Mutate on a broken-journal dataset succeeded; must fail closed")
	} else if !errors.Is(err, cserr.ErrSnapshotCorrupt) {
		t.Fatalf("fail-closed error: %v, want ErrSnapshotCorrupt wrap", err)
	}
	if !strings.Contains(infoErr(t, c), "compact") {
		t.Fatalf("replication info should point at compaction: %q", infoErr(t, c))
	}

	// Reads never stop: the live engine has the batch.
	if _, err := c.InfoFor("g"); err != nil {
		t.Fatalf("reads must keep working on a broken-journal dataset: %v", err)
	}

	// Compact rebuilds durability from live state and lifts the quarantine.
	if _, err := c.Compact("g"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, err := c.Mutate("g", attrDelta("healed"))
	if err != nil {
		t.Fatalf("Mutate after compaction: %v", err)
	}
	if after.Journaled == 0 {
		t.Fatalf("healed mutation should journal durably: %+v", after)
	}
}

// infoErr extracts the broken-journal marker the primary exposes to
// followers and operators via its replication info.
func infoErr(t *testing.T, c *Catalog) string {
	t.Helper()
	for _, info := range c.ReplicationInfos() {
		if info.Broken {
			return "journal has a durability hole; compact to heal it"
		}
	}
	return ""
}

// TestMutateJournalPartialWriteRewinds injects a torn record write (about
// half the bytes land) and verifies the journal's rewind discipline: the
// failed batch leaves no bytes behind, so after compaction the journal
// replays cleanly on a fresh boot.
func TestMutateJournalPartialWriteRewinds(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// One durable batch first, so the journal has real content to protect.
	if _, err := c.Mutate("g", attrDelta("durable")); err != nil {
		t.Fatal(err)
	}

	faults.Enable(7, faults.Spec{Site: "journal.append", Count: 1, Partial: true, Err: "enospc"})
	defer faults.Disable()
	if _, err := c.Mutate("g", attrDelta("torn")); err == nil {
		t.Fatal("Mutate with a torn journal write returned no error")
	}
	faults.Disable()

	// The torn bytes must have been rewound: remounting the journal in a
	// fresh catalog replays only the durable batch, with no decode error
	// from a half-written record.
	c.Close()
	c2 := New()
	defer c2.Close()
	_, replayed, err := c2.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatalf("remount after torn write: %v", err)
	}
	if replayed != 1 {
		t.Fatalf("replayed %d batches, want exactly the 1 durable one", replayed)
	}
}

// TestBackgroundCompactionWriteFault arms the snapshot.write fault site
// under a background compaction: the compaction fails cleanly — the error
// surfaces in Info.CompactError, the journal keeps its batch, no temp file
// is left beside the snapshot — and once disarmed the next compaction
// succeeds and clears the error.
func TestBackgroundCompactionWriteFault(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	defer c.Close()
	d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.SetCompactEvery(1)
	// commitAndCompact commits one group, which triggers a compaction, and
	// waits the compaction out.
	commitAndCompact := func(tag string) Info {
		t.Helper()
		res, err := c.Mutate("g", attrDelta(tag))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Compacting {
			t.Fatalf("batch %q did not trigger compaction: %+v", tag, res)
		}
		d.mu.Lock()
		live := d.live
		d.mu.Unlock()
		live.wg.Wait()
		return c.mustInfo(t, "g")
	}

	faults.Enable(1, faults.Spec{Site: "snapshot.write", Err: "enospc"})
	defer faults.Disable()
	info := commitAndCompact("faulted")
	if !strings.Contains(info.CompactError, faults.ErrInjected.Error()) {
		t.Fatalf("CompactError %q, want the injected snapshot.write fault", info.CompactError)
	}
	if info.JournalBatches != 1 {
		t.Fatalf("journal holds %d batches after a failed compaction, want 1", info.JournalBatches)
	}
	leftovers, err := filepath.Glob(snapPath + ".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("failed compaction left temp files: %v", leftovers)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("the snapshot must survive a failed compaction: %v", err)
	}

	faults.Disable()
	info = commitAndCompact("healed")
	if info.CompactError != "" || info.JournalBatches != 0 {
		t.Fatalf("compaction after disarming: error %q, %d journal batches", info.CompactError, info.JournalBatches)
	}
}
