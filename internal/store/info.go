package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// SnapshotInfo describes an on-disk snapshot without opening it: format
// version, section layout, and the properties that decide how it can serve.
// The zero value (Version 0) means "not a snapshot file".
type SnapshotInfo struct {
	// Version is the snapshot format version (1 legacy stream, 2 aligned
	// section table), or 0 when the file is not a snapshot.
	Version int `json:"version"`
	// Sections lists the v2 section names in file order (nil for v1).
	Sections []string `json:"sections,omitempty"`
	// Aligned reports the 8-byte-aligned v2 layout OpenMapped serves
	// zero-copy.
	Aligned bool `json:"aligned"`
	// Compressed reports delta+varint compressed adjacency, a read-only
	// legacy layout that opens on the heap.
	Compressed bool `json:"compressed"`
	// Index reports a precomputed admission-index section.
	Index bool `json:"index"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
}

// IsSnapshot reports whether the file was a snapshot at all.
func (i SnapshotInfo) IsSnapshot() bool { return i.Version != 0 }

// String renders the info for CLI output.
func (i SnapshotInfo) String() string {
	if !i.IsSnapshot() {
		return "not a snapshot"
	}
	props := make([]string, 0, 4)
	if i.Aligned {
		props = append(props, "aligned")
	}
	if i.Compressed {
		props = append(props, "compressed")
	}
	if i.Index {
		props = append(props, "index")
	}
	desc := ""
	if len(props) > 0 {
		desc = " " + strings.Join(props, ",")
	}
	if len(i.Sections) > 0 {
		return fmt.Sprintf("snapshot v%d%s (%d sections, %d bytes)", i.Version, desc, len(i.Sections), i.Bytes)
	}
	return fmt.Sprintf("snapshot v%d%s (%d bytes)", i.Version, desc, i.Bytes)
}

// DetectFile inspects the file at path and describes what kind of snapshot
// it is, reading only the header and (for v2) the section table — never the
// payload. A file that is not a snapshot (e.g. the text exchange format)
// returns the zero SnapshotInfo with a nil error; only I/O failures and
// structurally broken snapshot headers error.
func DetectFile(path string) (SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return SnapshotInfo{}, err
	}
	size := st.Size()
	head := make([]byte, min(size, int64(v2HeaderLen+v2MaxSections*v2TableEntry)))
	if _, err := io.ReadFull(f, head); err != nil {
		return SnapshotInfo{}, nil // shorter than its own header: not a snapshot
	}
	if len(head) < 12 || *(*[8]byte)(head[:8]) != magic {
		return SnapshotInfo{}, nil
	}
	switch v := binary.LittleEndian.Uint32(head[8:]); v {
	case Version:
		var flags uint32
		if len(head) >= 16 {
			flags = binary.LittleEndian.Uint32(head[12:])
		}
		return SnapshotInfo{
			Version: Version,
			Index:   flags&flagIndex != 0,
			Bytes:   size,
		}, nil
	case Version2:
		flags, secs, err := parseV2Table(head, size)
		if err != nil {
			return SnapshotInfo{Version: Version2, Bytes: size}, err
		}
		return SnapshotInfo{
			Version:    Version2,
			Sections:   sectionList(secs),
			Aligned:    true,
			Compressed: flags&flagCompressed != 0,
			Index:      flags&flagIndex != 0,
			Bytes:      size,
		}, nil
	default:
		return SnapshotInfo{Version: int(v), Bytes: size},
			fmt.Errorf("%s: snapshot version %d, this build reads %d and %d", path, v, Version, Version2)
	}
}
