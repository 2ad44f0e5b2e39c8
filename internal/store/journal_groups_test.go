package store

// Group-commit journal records: AppendGroups writes one record — one seq,
// one CRC, one fsync — for a whole coalesced batch; readers understand both
// the flat and the grouped payload shape and always surface the flattened
// delta list.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cserr"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// TestAppendGroupsSingleIsFlat proves a one-group batch writes the flat
// record shape: the payload is the bare JSON array of its deltas.
func TestAppendGroupsSingleIsFlat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	group := testBatches()[0]
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(j, group); err != nil {
		t.Fatal(err)
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(group)
	if err != nil {
		t.Fatal(err)
	}
	rec := data[journalHeaderLen:]
	if got := rec[12 : len(rec)-4]; !bytes.Equal(got, want) {
		t.Fatalf("single-group record payload %s, want the flat array %s", got, want)
	}
}

// TestAppendGroupsReplaysBothShapes interleaves flat and grouped records
// and proves replay surfaces every record in order, with the grouped
// record's deltas flattened and its group boundaries preserved.
func TestAppendGroupsReplaysBothShapes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	flat := testBatches()[0]
	groups := [][]mutate.Delta{testBatches()[1], testBatches()[2]}
	if seq, err := appendOne(j, flat); err != nil || seq != 1 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if seq, err := j.AppendGroups(groups); err != nil || seq != 2 {
		t.Fatalf("grouped record: seq=%d err=%v — one batch, ONE seq", seq, err)
	}
	if seq, err := appendOne(j, flat); err != nil || seq != 3 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	j.Close()

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records, want 3", len(replayed))
	}
	if !reflect.DeepEqual(replayed[0].Deltas, flat) || replayed[0].Groups != nil {
		t.Fatalf("flat record 1: %+v", replayed[0])
	}
	wantFlattened := append(append([]mutate.Delta{}, groups[0]...), groups[1]...)
	if !reflect.DeepEqual(replayed[1].Deltas, wantFlattened) {
		t.Fatalf("grouped record must flatten for replay: %+v", replayed[1].Deltas)
	}
	if !reflect.DeepEqual(replayed[1].Groups, groups) {
		t.Fatalf("grouped record must keep group boundaries: %+v", replayed[1].Groups)
	}
	if replayed[1].Seq != 2 || replayed[2].Seq != 3 {
		t.Fatalf("sequence numbering across shapes: %d, %d", replayed[1].Seq, replayed[2].Seq)
	}
}

// TestAppendGroupsEmptyRejected proves degenerate batches never reach the
// file.
func TestAppendGroupsEmptyRejected(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "g.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, groups := range [][][]mutate.Delta{nil, {}, {{}}, {{}, {}}} {
		if _, err := j.AppendGroups(groups); !errors.Is(err, cserr.ErrInvalidRequest) {
			t.Fatalf("AppendGroups(%v): %v, want ErrInvalidRequest", groups, err)
		}
	}
	if j.Batches() != 0 {
		t.Fatalf("degenerate batches landed: %d", j.Batches())
	}
}

// TestTornGroupedAppendRewindsWhole injects a partial write into a grouped
// append and proves the batch-record rewind discipline: no bytes of the
// torn record survive, the journal stays usable, and a reopen replays only
// the intact records — no partial batch ever replays.
func TestTornGroupedAppendRewindsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := testBatches()[0]
	if _, err := appendOne(j, intact); err != nil {
		t.Fatal(err)
	}

	faults.Enable(3, faults.Spec{Site: "journal.append", Count: 1, Partial: true, Err: "enospc"})
	defer faults.Disable()
	groups := [][]mutate.Delta{testBatches()[1], testBatches()[2]}
	if _, err := j.AppendGroups(groups); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("torn grouped append: %v, want the injected fault", err)
	}
	if j.Batches() != 1 || j.Seq() != 1 {
		t.Fatalf("torn record must rewind whole: Batches=%d Seq=%d", j.Batches(), j.Seq())
	}

	// The journal keeps working after the rewind, and the retried batch
	// lands intact.
	faults.Disable()
	if seq, err := j.AppendGroups(groups); err != nil || seq != 2 {
		t.Fatalf("retry after rewind: seq=%d err=%v", seq, err)
	}
	j.Close()

	j2, replayed, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2 (no partial batch)", len(replayed))
	}
	if !reflect.DeepEqual(replayed[1].Groups, groups) {
		t.Fatalf("retried batch: %+v", replayed[1])
	}
}

// TestTailJournalSurfacesGroupedRecords proves the replication tail reads
// grouped records too, flattened — the shape followers fold.
func TestTailJournalSurfacesGroupedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	groups := [][]mutate.Delta{testBatches()[0], testBatches()[1]}
	if _, err := j.AppendGroups(groups); err != nil {
		t.Fatal(err)
	}
	tail, err := TailJournal(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 {
		t.Fatalf("tail returned %d records, want 1", len(tail))
	}
	wantFlattened := append(append([]mutate.Delta{}, groups[0]...), groups[1]...)
	if !reflect.DeepEqual(tail[0].Deltas, wantFlattened) {
		t.Fatalf("tailed grouped record: %+v", tail[0].Deltas)
	}
}
