package catalog

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
)

// replicatedFixture mounts the live fixture journaled as "g" and applies n
// mutation batches (one edge each, all distinct).
func replicatedFixture(t *testing.T, n int) *Catalog {
	t.Helper()
	snapPath, journalPath := liveFixture(t)
	c := New()
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(0, graph.NodeID(4+i))}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestReplicateSnapshotRoundtrip(t *testing.T) {
	c := replicatedFixture(t, 2)
	var buf bytes.Buffer
	version, lineage, err := c.ReplicateSnapshot("g", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || lineage != 0 {
		t.Fatalf("cursor = (v=%d, lin=%d), want (2, 0)", version, lineage)
	}
	snap, err := store.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("replicated snapshot does not open: %v", err)
	}
	if snap.Info.Version != store.Version2 || !snap.Info.Aligned {
		t.Fatalf("replicated snapshot is not the mappable layout: %+v", snap.Info)
	}
	src, err := c.Resolve("g")
	if err != nil {
		t.Fatal(err)
	}
	g := src.Graph()
	if snap.Graph.NumNodes() != g.NumNodes() || snap.Graph.NumEdges() != g.NumEdges() {
		t.Fatalf("replicated shape %d/%d, primary %d/%d",
			snap.Graph.NumNodes(), snap.Graph.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestJournalSinceWindows(t *testing.T) {
	c := replicatedFixture(t, 3)

	// Full tail from zero: every batch, rebased 1..3.
	batches, cur, err := c.JournalSince("g", 0, 0)
	if err != nil || cur != 3 || len(batches) != 3 {
		t.Fatalf("full tail: %d batches, cur=%d, err=%v", len(batches), cur, err)
	}
	for i, b := range batches {
		if b.Version != uint64(i+1) || len(b.Deltas) != 1 {
			t.Fatalf("batch %d: version=%d deltas=%d", i, b.Version, len(b.Deltas))
		}
	}

	// Mid-cursor tail.
	batches, _, err = c.JournalSince("g", 0, 1)
	if err != nil || len(batches) != 2 || batches[0].Version != 2 {
		t.Fatalf("tail from 1: %d batches, first=%v, err=%v", len(batches), batches, err)
	}

	// Caught up: empty, nil error.
	if batches, _, err = c.JournalSince("g", 0, 3); err != nil || len(batches) != 0 {
		t.Fatalf("caught-up tail: %d batches, err=%v", len(batches), err)
	}

	// Ahead of the primary and wrong lineage both demand a resync.
	if _, _, err = c.JournalSince("g", 0, 4); !errors.Is(err, ErrResync) {
		t.Fatalf("cursor ahead: %v, want ErrResync", err)
	}
	if _, _, err = c.JournalSince("g", 7, 2); !errors.Is(err, ErrResync) {
		t.Fatalf("wrong lineage: %v, want ErrResync", err)
	}
}

func TestJournalSinceAfterCompaction(t *testing.T) {
	c := replicatedFixture(t, 3)
	if _, err := c.Compact("g"); err != nil {
		t.Fatal(err)
	}
	// The journal is empty now; only the current cursor is servable.
	if batches, cur, err := c.JournalSince("g", 0, 3); err != nil || cur != 3 || len(batches) != 0 {
		t.Fatalf("post-compact caught-up: %d batches, cur=%d, err=%v", len(batches), cur, err)
	}
	if _, _, err := c.JournalSince("g", 0, 2); !errors.Is(err, ErrResync) {
		t.Fatalf("cursor before compacted base: %v, want ErrResync", err)
	}
	// New mutations rebase onto the compacted journal: version 4 is journal
	// seq 1, and a cursor at the compaction point tails it seamlessly.
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(1, 8)}); err != nil {
		t.Fatal(err)
	}
	batches, cur, err := c.JournalSince("g", 0, 3)
	if err != nil || cur != 4 || len(batches) != 1 || batches[0].Version != 4 {
		t.Fatalf("post-compact tail: %+v, cur=%d, err=%v", batches, cur, err)
	}
}

func TestJournalSinceUnjournaled(t *testing.T) {
	snapPath, _ := liveFixture(t)
	c := New()
	defer c.Close()
	if _, err := c.MountPath("g", snapPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(0, 5)}); err != nil {
		t.Fatal(err)
	}
	info, err := c.ReplicationInfo("g")
	if err != nil || info.Journaled {
		t.Fatalf("unjournaled dataset reports Journaled=%v, err=%v", info.Journaled, err)
	}
	if _, _, err := c.JournalSince("g", 0, 0); !errors.Is(err, ErrResync) {
		t.Fatalf("unjournaled tail: %v, want ErrResync", err)
	}
	// Snapshot replication still works — it is how such a dataset ships.
	if v, _, err := c.ReplicateSnapshot("g", io.Discard); err != nil || v != 1 {
		t.Fatalf("unjournaled snapshot: v=%d, err=%v", v, err)
	}
}

func TestSwapStartsNewLineage(t *testing.T) {
	c := replicatedFixture(t, 2)
	snapPath, _ := liveFixture(t)
	if _, err := c.SwapPath("g", snapPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	info, err := c.ReplicationInfo("g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Lineage != 1 || info.JournalSeq != 0 {
		t.Fatalf("post-swap: lineage=%d journalSeq=%d, want 1/0", info.Lineage, info.JournalSeq)
	}
	// A cursor from the old lineage answers resync, whatever its position.
	if _, _, err := c.JournalSince("g", 0, 0); !errors.Is(err, ErrResync) {
		t.Fatalf("old-lineage cursor: %v, want ErrResync", err)
	}
}
