package store

// Write-ahead mutation journal. A Journal is the durability companion of a
// packed snapshot: every mutation batch the serving layer accepts is
// appended (and synced) before the call returns, and a restarting process
// replays the journal on top of the last snapshot to reconstruct the exact
// live state. Compaction writes a fresh snapshot carrying the folded-in
// deltas and resets the journal to empty.
//
// # Format (version 1)
//
//	magic    [8]byte  "SEAJRNL\x00"
//	version  uint32   currently 1
//	records:
//	  seq    uint64   1-based batch sequence number, strictly increasing
//	  len    uint32   payload byte length
//	  payload []byte  JSON: either a flat array of mutate.Delta, or a
//	                  group-commit batch object {"groups":[[...],[...]]}
//	  crc    uint32   CRC-32 (Castagnoli) of seq+len+payload
//
// A record is one commit — one sequence number, one engine generation —
// whichever payload shape it carries. The group-commit write path
// (AppendGroups) coalesces several callers' delta groups into one record:
// a single group writes the flat-array shape (a bare JSON array — 13 bytes
// per record smaller than the batch object), several groups write the batch
// object, and the record is CRC'd as a unit either way, so a torn batch
// append rewinds whole and no partial batch ever replays. Readers
// (OpenJournal replay and TailJournal) understand both shapes and always
// surface the flattened delta list; the group boundaries ride along in
// JournalBatch.Groups.
//
// Records are self-checking: Open replays until the first short or
// corrupted record, truncates the file there (a torn tail from a crashed
// writer), and resumes appending after it. A journal whose header is
// unreadable reports cserr.ErrSnapshotCorrupt rather than silently starting
// over.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cserr"
	"repro/internal/faults"
	"repro/internal/mutate"
)

// Fault-injection sites in this file (armed via internal/faults; free when
// disarmed): "journal.open" fails OpenJournal, "journal.append" fails (or
// tears, with partial) the record write, "journal.fsync" fails the
// post-append sync, "journal.tail" fails TailJournal reads, and
// "snapshot.write" fails (or tears) AtomicWriteFile payloads.

// JournalVersion is the journal format version this build reads and writes.
const JournalVersion = 1

var journalMagic = [8]byte{'S', 'E', 'A', 'J', 'R', 'N', 'L', 0}

const journalHeaderLen = 12 // magic + version

// JournalBatch is one replayed journal record: one commit. Deltas is always
// the full flattened list, in application order, whatever shape the record
// was written in. Groups preserves the caller-group boundaries of a
// group-commit record (nil for a flat single-group record) — replay
// consumers that only need the state fold use Deltas and ignore it.
type JournalBatch struct {
	Seq    uint64
	Deltas []mutate.Delta
	Groups [][]mutate.Delta
}

// groupedPayload is the JSON shape of a multi-group record. The flat shape
// is a bare JSON array, so the two are distinguished by the first byte.
type groupedPayload struct {
	Groups [][]mutate.Delta `json:"groups"`
}

// Journal is an append-only write-ahead log of mutation batches. It is not
// safe for concurrent use; the catalog serializes appends per dataset.
type Journal struct {
	f       *os.File
	path    string
	seq     uint64 // last sequence number written or replayed
	batches int    // batches appended since the last reset (replay included)
	off     int64  // end offset of the last durable record

	// lastSyncNS is the fsync duration of the most recent successful append
	// — the storage-latency component of the write path, surfaced through
	// MutateResult so callers can tell queueing from disk time.
	lastSyncNS int64
}

// OpenJournal opens (or creates) the journal at path and replays its
// records. A torn or corrupted tail — the residue of a crash mid-append —
// is truncated away; the replayed prefix is returned for the caller to
// re-apply on top of its snapshot.
func OpenJournal(path string) (*Journal, []JournalBatch, error) {
	if err := faults.Check("journal.open"); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{f: f, path: path}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Size() == 0 {
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.off = journalHeaderLen
		return j, nil, nil
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := checkJournalHeader(data, path); err != nil {
		f.Close()
		return nil, nil, err
	}

	batches, good := scanJournal(data)
	if n := len(batches); n > 0 {
		j.seq = batches[n-1].Seq
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.batches = len(batches)
	j.off = int64(good)
	return j, batches, nil
}

// scanJournal walks the records of a journal image (header already
// validated), returning the replayable prefix and the byte offset of its
// end. The scan stops — without error — at the first torn, corrupted,
// undecodable or out-of-sequence record: everything from there on is tail
// residue for the caller to truncate (OpenJournal) or ignore (TailJournal).
func scanJournal(data []byte) (batches []JournalBatch, good int) {
	off := journalHeaderLen
	good = off
	var last uint64
	for off < len(data) {
		rest := data[off:]
		if len(rest) < 12 {
			break // torn tail
		}
		seq := binary.LittleEndian.Uint64(rest[:8])
		plen := int(binary.LittleEndian.Uint32(rest[8:12]))
		if plen < 0 || len(rest) < 12+plen+4 {
			break // torn tail
		}
		sum := crc32.Checksum(rest[:12+plen], castagnoli)
		if sum != binary.LittleEndian.Uint32(rest[12+plen:12+plen+4]) {
			break // corrupted record: stop replay here
		}
		b, ok := decodePayload(rest[12 : 12+plen])
		if !ok {
			break // undecodable payload despite the checksum: treat as tail
		}
		if seq != last+1 {
			break // sequence gap: a truncated-then-reused file; stop
		}
		last = seq
		b.Seq = seq
		batches = append(batches, b)
		off += 12 + plen + 4
		good = off
	}
	return batches, good
}

// decodePayload parses one record payload, flat array or batch object, into
// a JournalBatch (Seq left for the caller). Both shapes yield the flattened
// delta list; the batch object additionally carries the group boundaries.
func decodePayload(payload []byte) (JournalBatch, bool) {
	i := 0
	for i < len(payload) && (payload[i] == ' ' || payload[i] == '\t' || payload[i] == '\n' || payload[i] == '\r') {
		i++
	}
	if i < len(payload) && payload[i] == '{' {
		var gp groupedPayload
		if err := json.Unmarshal(payload, &gp); err != nil || len(gp.Groups) == 0 {
			return JournalBatch{}, false
		}
		n := 0
		for _, g := range gp.Groups {
			n += len(g)
		}
		flat := make([]mutate.Delta, 0, n)
		for _, g := range gp.Groups {
			flat = append(flat, g...)
		}
		return JournalBatch{Deltas: flat, Groups: gp.Groups}, true
	}
	var deltas []mutate.Delta
	if err := json.Unmarshal(payload, &deltas); err != nil {
		return JournalBatch{}, false
	}
	return JournalBatch{Deltas: deltas}, true
}

// checkJournalHeader validates a journal image's magic and version.
func checkJournalHeader(data []byte, path string) error {
	if len(data) < journalHeaderLen {
		return fmt.Errorf("%w: %s: %d bytes is shorter than a journal header",
			cserr.ErrSnapshotCorrupt, path, len(data))
	}
	var head [8]byte
	copy(head[:], data)
	if head != journalMagic {
		return fmt.Errorf("%w: %s is not a mutation journal", cserr.ErrSnapshotVersion, path)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != JournalVersion {
		return fmt.Errorf("%w: %s: journal version %d, this build reads %d",
			cserr.ErrSnapshotVersion, path, v, JournalVersion)
	}
	return nil
}

// TailJournal reads the journal at path without taking ownership of it and
// returns the batches with sequence numbers strictly greater than after, in
// order. It is the replication-serving read path: the journal's writer keeps
// appending through its own handle while tails are served from independent
// read-only opens. A torn or not-yet-durable tail record is simply not
// returned (never truncated — the file belongs to the writer); the caller
// re-polls and sees it once the append completes. after at or beyond the
// last durable record yields an empty tail and no error.
func TailJournal(path string, after uint64) ([]JournalBatch, error) {
	if err := faults.Check("journal.tail"); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := checkJournalHeader(data, path); err != nil {
		return nil, err
	}
	batches, _ := scanJournal(data)
	for i, b := range batches {
		if b.Seq > after {
			return batches[i:], nil
		}
	}
	return nil, nil
}

func (j *Journal) writeHeader() error {
	var hdr [journalHeaderLen]byte
	copy(hdr[:], journalMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], JournalVersion)
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	return j.f.Sync()
}

// AppendGroups writes one group-commit batch — several callers' delta
// groups — as ONE record: one sequence number, one CRC, one fsync to stable
// storage before its sequence number is returned. A single-group batch
// writes the flat record shape; more groups write the batch-object shape.
// Either way the append is atomic at replay: a failed append (short write,
// ENOSPC) truncates the file back to the last durable record, so a later
// successful append can never land after torn garbage that replay would
// stop at — an acknowledged batch is never silently discarded at boot, and
// no partial batch ever replays.
func (j *Journal) AppendGroups(groups [][]mutate.Delta) (uint64, error) {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if len(groups) == 0 || n == 0 {
		return 0, cserr.Invalidf("journal: empty commit batch")
	}
	if len(groups) == 1 {
		return j.append(groups[0])
	}
	return j.append(groupedPayload{Groups: groups})
}

// append marshals payload (a flat []mutate.Delta or a groupedPayload) into
// one record and commits it durably.
func (j *Journal) append(payload any) (uint64, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	seq := j.seq + 1
	rec := make([]byte, 12+len(body)+4)
	binary.LittleEndian.PutUint64(rec[:8], seq)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(body)))
	copy(rec[12:], body)
	binary.LittleEndian.PutUint32(rec[12+len(body):], crc32.Checksum(rec[:12+len(body)], castagnoli))
	rewind := func(err error) (uint64, error) {
		if terr := j.f.Truncate(j.off); terr == nil {
			j.f.Seek(j.off, io.SeekStart)
		}
		return 0, err
	}
	if _, err := faults.Wrap("journal.append", j.f).Write(rec); err != nil {
		return rewind(err)
	}
	tSync := time.Now()
	if err := faults.Check("journal.fsync"); err != nil {
		return rewind(err)
	}
	if err := j.f.Sync(); err != nil {
		return rewind(err)
	}
	j.lastSyncNS = time.Since(tSync).Nanoseconds()
	j.seq = seq
	j.batches++
	j.off += int64(len(rec))
	return seq, nil
}

// Batches returns the number of batches the journal currently holds.
func (j *Journal) Batches() int { return j.batches }

// Seq returns the last written sequence number (0 for an empty journal).
func (j *Journal) Seq() uint64 { return j.seq }

// LastSyncNS returns the fsync duration of the most recent successful
// append in nanoseconds (0 before the first append).
func (j *Journal) LastSyncNS() int64 { return j.lastSyncNS }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Reset empties the journal after a compaction has folded its batches into
// a snapshot. The sequence numbering restarts.
func (j *Journal) Reset() error {
	if err := j.f.Truncate(journalHeaderLen); err != nil {
		return err
	}
	if _, err := j.f.Seek(journalHeaderLen, io.SeekStart); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.seq = 0
	j.batches = 0
	j.off = journalHeaderLen
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// AtomicWriteFile streams write's output to a temp file in path's directory
// and renames it into place only on success, so rewriting over an existing
// good file can never destroy it. It returns the written size. It is the
// write discipline behind snapshot packing and journal compaction.
func AtomicWriteFile(path string, write func(io.Writer) error) (int64, error) {
	tmp, size, err := WriteTemp(path, write)
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return size, nil
}

// WriteTemp is AtomicWriteFile without the rename: it streams write's output
// through the "snapshot.write" fault site to a new temp file in path's
// directory, syncs and closes it, and returns the temp file's name and size.
// On error the temp file is already removed. Renaming it over path is the
// caller's commit point — background compaction renames only if no batch
// landed while the snapshot was on its way to disk.
func WriteTemp(path string, write func(io.Writer) error) (string, int64, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return "", 0, err
	}
	tmp := f.Name()
	fail := func(err error) (string, int64, error) {
		f.Close()
		os.Remove(tmp)
		return "", 0, err
	}
	if err := write(faults.Wrap("snapshot.write", f)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", 0, err
	}
	return tmp, st.Size(), nil
}
