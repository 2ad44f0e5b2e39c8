package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cserr"
	"repro/internal/mutate"
)

func testBatches() [][]mutate.Delta {
	return [][]mutate.Delta{
		{mutate.AddEdge(1, 2), mutate.RemoveEdge(3, 4)},
		{mutate.AddNode([]string{"a", "b"}, []float64{0.5})},
		{mutate.SetAttr(7, []string{"x"}, nil), mutate.SetAttr(8, nil, []float64{1, 2})},
	}
}

// appendOne journals deltas as a one-group commit.
func appendOne(j *Journal, deltas []mutate.Delta) (uint64, error) {
	return j.AppendGroups([][]mutate.Delta{deltas})
}

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 || j.Batches() != 0 || j.Seq() != 0 {
		t.Fatalf("fresh journal: %d batches, seq %d", j.Batches(), j.Seq())
	}
	want := testBatches()
	for i, b := range want {
		seq, err := appendOne(j, b)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if _, err := appendOne(j, nil); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("empty batch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != len(want) || j2.Batches() != len(want) || j2.Seq() != uint64(len(want)) {
		t.Fatalf("replayed %d batches, Batches=%d Seq=%d", len(replayed), j2.Batches(), j2.Seq())
	}
	for i, b := range replayed {
		if b.Seq != uint64(i+1) || !reflect.DeepEqual(b.Deltas, want[i]) {
			t.Fatalf("batch %d: %+v, want %+v", i, b, want[i])
		}
	}
	// Appending after replay continues the sequence.
	if seq, err := appendOne(j2, want[0]); err != nil || seq != 4 {
		t.Fatalf("append after replay: seq=%d err=%v", seq, err)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	want := testBatches()
	for _, b := range want {
		if _, err := appendOne(j, b); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: write half a record.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, full...), 0x01, 0x02, 0x03)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(replayed), len(want))
	}
	// The torn bytes are gone and appends go to the right offset.
	if _, err := appendOne(j2, want[1]); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, replayed, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(want)+1 {
		t.Fatalf("after truncate+append: %d batches, want %d", len(replayed), len(want)+1)
	}

	// A flipped byte inside a record stops replay at the previous batch.
	full, _ = os.ReadFile(path)
	full[journalHeaderLen+20] ^= 0xFF
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	j4, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if len(replayed) != 0 {
		t.Fatalf("corrupt first record must stop replay, got %d batches", len(replayed))
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, b := range testBatches() {
		if _, err := appendOne(j, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Batches() != 0 || j.Seq() != 0 {
		t.Fatalf("after reset: Batches=%d Seq=%d", j.Batches(), j.Seq())
	}
	if seq, err := appendOne(j, testBatches()[0]); err != nil || seq != 1 {
		t.Fatalf("append after reset: seq=%d err=%v", seq, err)
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-journal")
	if err := os.WriteFile(path, []byte("definitely a text file, not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); !errors.Is(err, cserr.ErrSnapshotVersion) {
		t.Fatalf("foreign file: %v", err)
	}
}
