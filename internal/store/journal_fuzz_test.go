package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// FuzzScanJournal feeds the journal's record scan arbitrary bytes after a
// valid header, seeded with a real journal (flat and grouped records), its
// truncations and bit flips. The scan must never panic; the end of its
// replayable prefix must lie inside the image; scanning that prefix alone
// must give the same batches; and bytes appended after the prefix must
// leave those batches in place, only ever adding to them.
func FuzzScanJournal(f *testing.F) {
	path := filepath.Join(f.TempDir(), "g.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range testBatches() {
		if _, err := appendOne(j, b); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := j.AppendGroups(testBatches()); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	recs := data[journalHeaderLen:]
	f.Add(recs, []byte(nil))
	for _, cut := range []int{1, 8, 11, 12, len(recs) / 3, len(recs) / 2, len(recs) - 1} {
		f.Add(recs[:cut], recs[cut:])
	}
	for _, at := range []int{0, 9, 14, len(recs) / 2, len(recs) - 2} {
		bad := append([]byte(nil), recs...)
		bad[at] ^= 0x20
		f.Add(bad, recs)
	}
	f.Add([]byte{}, []byte("[]"))

	head := make([]byte, journalHeaderLen)
	copy(head, journalMagic[:])
	binary.LittleEndian.PutUint32(head[8:], JournalVersion)

	f.Fuzz(func(t *testing.T, recs, tail []byte) {
		data := append(append([]byte(nil), head...), recs...)
		batches, good := scanJournal(data)
		if good < journalHeaderLen || good > len(data) {
			t.Fatalf("prefix ends at %d of a %d-byte image", good, len(data))
		}
		again, goodAgain := scanJournal(data[:good])
		if goodAgain != good || !slices.EqualFunc(again, batches, equalBatch) {
			t.Fatalf("re-scanning the %d-byte prefix gave %d batches ending at %d, want %d ending at %d",
				good, len(again), goodAgain, len(batches), good)
		}
		more, goodMore := scanJournal(append(data[:good:good], tail...))
		if goodMore < good || len(more) < len(batches) || !slices.EqualFunc(more[:len(batches)], batches, equalBatch) {
			t.Fatalf("%d appended bytes changed the prefix's %d batches (now %d, ending at %d of %d)",
				len(tail), len(batches), len(more), goodMore, good)
		}
	})
}

func equalBatch(a, b JournalBatch) bool { return reflect.DeepEqual(a, b) }
