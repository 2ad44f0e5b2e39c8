package store

// Fault-injection tests for the storage layer's failure discipline: a
// failed or torn journal append must leave the file exactly as it was, and
// an atomic snapshot write that dies mid-stream must leave no destination
// file at all.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faults"
	"repro/internal/mutate"
)

func testDeltas(tag string) []mutate.Delta {
	return []mutate.Delta{{Op: mutate.OpSetAttr, U: 1, Text: []string{tag}}}
}

// TestJournalAppendFsyncFaultRewinds: an injected fsync error must rewind
// the record so the on-disk journal holds exactly the durable batches —
// and the journal must keep working once the fault clears.
func TestJournalAppendFsyncFaultRewinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, batches, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(batches) != 0 {
		t.Fatalf("fresh journal replayed %d batches", len(batches))
	}
	if _, err := appendOne(j, testDeltas("one")); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)

	faults.Enable(1, faults.Spec{Site: "journal.fsync", Count: 1, Err: "enospc"})
	defer faults.Disable()
	if _, err := appendOne(j, testDeltas("lost")); err == nil {
		t.Fatal("Append with a failing fsync returned no error")
	} else if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error should surface the injected ENOSPC: %v", err)
	}
	if got := fileSize(t, path); got != sizeBefore {
		t.Fatalf("failed append left %d bytes (was %d); the record must rewind", got, sizeBefore)
	}

	// Fault spent: the journal accepts appends again, and a reopen replays
	// exactly the durable batches in order.
	if _, err := appendOne(j, testDeltas("two")); err != nil {
		t.Fatalf("append after fault cleared: %v", err)
	}
	j.Close()
	j2, batches, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(batches) != 2 {
		t.Fatalf("replayed %d batches, want 2 (the durable ones)", len(batches))
	}
}

// TestJournalAppendPartialWriteRewinds: a torn record write (half the
// bytes land, then the disk dies) must also rewind — a replay must never
// see a half-record.
func TestJournalAppendPartialWriteRewinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := appendOne(j, testDeltas("keep")); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)

	faults.Enable(2, faults.Spec{Site: "journal.append", Count: 1, Partial: true, Err: "eio"})
	defer faults.Disable()
	if _, err := appendOne(j, testDeltas("torn-record-with-some-length-to-it")); err == nil {
		t.Fatal("Append with a torn write returned no error")
	}
	if got := fileSize(t, path); got != sizeBefore {
		t.Fatalf("torn append left %d bytes (was %d); the half-record must rewind", got, sizeBefore)
	}
	if _, err := TailJournal(path, 0); err != nil {
		t.Fatalf("tail after torn write: %v", err)
	}
}

// TestAtomicWriteFileFault: a snapshot write that fails mid-stream (torn
// or clean) must leave neither the destination nor the temp file behind.
func TestAtomicWriteFileFault(t *testing.T) {
	dir := t.TempDir()
	dest := filepath.Join(dir, "g.snap")
	faults.Enable(3, faults.Spec{Site: "snapshot.write", Count: 1, Partial: true, Err: "enospc"})
	defer faults.Disable()
	_, err := AtomicWriteFile(dest, func(w io.Writer) error {
		for i := 0; i < 64; i++ {
			if _, err := fmt.Fprintf(w, "chunk %04d of snapshot payload\n", i); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("AtomicWriteFile with an injected write fault returned no error")
	}
	if _, serr := os.Stat(dest); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("failed atomic write left the destination behind: %v", serr)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("failed atomic write left %d stray files: %v", len(entries), entries)
	}

	// Fault spent: the same write succeeds and the file is whole.
	n, err := AtomicWriteFile(dest, func(w io.Writer) error {
		_, err := io.WriteString(w, "whole snapshot")
		return err
	})
	if err != nil {
		t.Fatalf("write after fault cleared: %v", err)
	}
	if got := fileSize(t, dest); got != n {
		t.Fatalf("size %d, want %d", got, n)
	}
}

// TestOpenFaults: injected open errors surface from both journal open and
// snapshot open without wedging later opens.
func TestOpenFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	faults.Enable(4, faults.Spec{Site: "journal.open", Count: 1, Err: "eio"})
	defer faults.Disable()
	if _, _, err := OpenJournal(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("OpenJournal under fault: %v, want injected error", err)
	}
	j2, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal after fault cleared: %v", err)
	}
	j2.Close()
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
