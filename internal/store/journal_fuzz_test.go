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
	recs := seedJournal(f)[journalHeaderLen:]
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

// seedJournal is a real journal image: three flat records, then one grouped
// record holding the same three groups.
func seedJournal(f *testing.F) []byte {
	path := filepath.Join(f.TempDir(), "seed.journal")
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
	return data
}

// FuzzOpenJournal writes arbitrary bytes as a whole journal file, seeded with
// a real journal, its truncations and bit flips, a header-only file and a
// foreign file. Opening may fail only on a bad header. When it succeeds the
// file must now hold a prefix of the input; one more group appended, the
// journal closed and reopened, the replay must be the first open's batches
// plus the new one at the next sequence number; and TailJournal(path, s)
// must return the suffix after s for every s.
func FuzzOpenJournal(f *testing.F) {
	data := seedJournal(f)
	f.Add(data)
	for _, cut := range []int{0, 5, journalHeaderLen - 1, journalHeaderLen, journalHeaderLen + 11,
		len(data) / 3, len(data) / 2, len(data) - 4, len(data) - 1} {
		f.Add(data[:cut])
	}
	for _, at := range []int{0, 8, journalHeaderLen, journalHeaderLen + 9, journalHeaderLen + 14, len(data) / 2, len(data) - 2} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x20
		f.Add(bad)
	}
	f.Add([]byte("SEASNAP\x00 is a snapshot, not a journal"))

	group := testBatches()[0]
	// One file per fuzzing process, rewritten by every input: inputs run one
	// at a time, and a directory per input would cost more than the open.
	path := filepath.Join(f.TempDir(), "g.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, batches, err := OpenJournal(path)
		if err != nil {
			if len(data) == 0 || checkJournalHeader(data, path) == nil {
				t.Fatalf("open failed on a journal with a good header: %v", err)
			}
			return
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && (len(kept) > len(data) || !slices.Equal(kept, data[:len(kept)])) {
			t.Fatalf("open left %d bytes that are not a prefix of the %d-byte file", len(kept), len(data))
		}
		seq, err := appendOne(j, group)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(len(batches) + 1); seq != want {
			t.Fatalf("append after %d replayed batches took seq %d, want %d", len(batches), seq, want)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(slices.Clone(batches), JournalBatch{Seq: seq, Deltas: group})
		j, again, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		if !slices.EqualFunc(again, want, equalBatch) {
			t.Fatalf("reopen replayed %d batches, want the %d first replayed plus the appended one", len(again), len(batches))
		}
		for s := uint64(0); s <= uint64(len(want))+1; s++ {
			tail, err := TailJournal(path, s)
			if err != nil {
				t.Fatal(err)
			}
			if suffix := want[min(s, uint64(len(want))):]; !slices.EqualFunc(tail, suffix, equalBatch) {
				t.Fatalf("TailJournal after %d: %d batches, want %d", s, len(tail), len(suffix))
			}
		}
	})
}
