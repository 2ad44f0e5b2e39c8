package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mutate"
)

// writeTailFixture appends the given batches to a fresh journal at path.
func writeTailFixture(t *testing.T, path string, batches [][]mutate.Delta) {
	t.Helper()
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, b := range batches {
		if _, err := appendOne(j, b); err != nil {
			t.Fatal(err)
		}
	}
}

// recordEnds returns the byte offset just past each record of a journal
// image, computed from the length fields alone.
func recordEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := journalHeaderLen
	for off < len(data) {
		if len(data)-off < 12 {
			t.Fatalf("trailing garbage at offset %d", off)
		}
		plen := int(binary.LittleEndian.Uint32(data[off+8 : off+12]))
		off += 12 + plen + 4
		ends = append(ends, off)
	}
	return ends
}

// TestTailJournalEveryTruncation cuts a three-batch journal at every byte
// boundary and checks TailJournal returns exactly the records that end
// before the cut — a torn tail (or a partially flushed append seen by a
// concurrent reader) never yields a partial or corrupt batch.
func TestTailJournalEveryTruncation(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	want := testBatches()
	writeTailFixture(t, full, want)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, data)
	if len(ends) != len(want) {
		t.Fatalf("fixture has %d records, want %d", len(ends), len(want))
	}
	cutPath := filepath.Join(dir, "cut.journal")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := TailJournal(cutPath, 0)
		if cut < journalHeaderLen {
			if err == nil {
				t.Fatalf("cut=%d: torn header tailed without error", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantN := 0
		for _, end := range ends {
			if end <= cut {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: %d batches, want %d", cut, len(got), wantN)
		}
		for i, b := range got {
			if b.Seq != uint64(i+1) || !reflect.DeepEqual(b.Deltas, want[i]) {
				t.Fatalf("cut=%d batch %d: %+v, want seq=%d %+v", cut, i, b, i+1, want[i])
			}
		}
	}
}

// TestTailJournalFromSeq checks the after-cursor filtering: TailJournal
// returns exactly the records past the cursor, and a cursor at or past the
// head returns nothing.
func TestTailJournalFromSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	want := testBatches()
	writeTailFixture(t, path, want)
	for after := uint64(0); after <= uint64(len(want))+1; after++ {
		got, err := TailJournal(path, after)
		if err != nil {
			t.Fatalf("after=%d: %v", after, err)
		}
		wantN := len(want) - int(after)
		if wantN < 0 {
			wantN = 0
		}
		if len(got) != wantN {
			t.Fatalf("after=%d: %d batches, want %d", after, len(got), wantN)
		}
		for i, b := range got {
			seq := after + uint64(i) + 1
			if b.Seq != seq || !reflect.DeepEqual(b.Deltas, want[seq-1]) {
				t.Fatalf("after=%d batch %d: seq=%d, want %d", after, i, b.Seq, seq)
			}
		}
	}
}

// TestTailJournalConcurrentAppend tails a journal while a writer is
// appending to it. Every tail must be a contiguous prefix-consistent slice:
// seq-contiguous from the cursor, and each batch's marker delta must match
// its sequence number. Run with -race: TailJournal reads through its own
// file descriptor, never the writer's buffers.
func TestTailJournalConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	const total = 64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= total; i++ {
			// The marker encodes the sequence number, so a reader can
			// verify it never sees record n's payload under record m's
			// header.
			if _, err := appendOne(j, []mutate.Delta{mutate.AddEdge(graph.NodeID(i), graph.NodeID(i+1))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var cursor uint64
	for cursor < total {
		got, err := TailJournal(path, cursor)
		if err != nil {
			t.Fatalf("cursor=%d: %v", cursor, err)
		}
		for _, b := range got {
			if b.Seq != cursor+1 {
				t.Fatalf("tail skipped: got seq %d at cursor %d", b.Seq, cursor)
			}
			if len(b.Deltas) != 1 || b.Deltas[0].U != graph.NodeID(b.Seq) || b.Deltas[0].V != graph.NodeID(b.Seq+1) {
				t.Fatalf("batch %d carries wrong payload: %+v", b.Seq, b.Deltas)
			}
			cursor = b.Seq
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got, err := TailJournal(path, 0)
	if err != nil || len(got) != total {
		t.Fatalf("final tail: %d batches, err=%v; want %d", len(got), err, total)
	}
}

// TestTailJournalMissing checks the error path for a journal that does not
// exist — the follower treats it as "resync", not a crash.
func TestTailJournalMissing(t *testing.T) {
	if _, err := TailJournal(filepath.Join(t.TempDir(), "nope.journal"), 0); err == nil {
		t.Fatal("missing journal tailed without error")
	}
}
