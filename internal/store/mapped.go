package store

// Zero-copy snapshot serving. OpenMapped memory-maps a version-2 aligned
// snapshot and reinterprets its sections in place: the CSR arrays, attribute
// columns and index arrays are served straight from the page cache with no
// read, no copy and no per-element decode, so boot cost is O(header + dict),
// independent of graph size. The mapping is read-only (PROT_READ); every
// consumer reaches it through the read-only graph.Store interface, and
// mutations build heap overlays on top (graph.Overlay) without ever writing
// the mapped pages.
//
// OpenMapped degrades gracefully: a legacy snapshot (v1, or v2 with
// compressed adjacency), a platform without mmap, or a section whose payload
// lands misaligned in memory falls back to the heap open (or a per-section
// copy) — same Snapshot semantics, just not zero-copy. Callers can tell
// which they got from Mounted.Mapped.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/graph"
)

// errMmapUnsupported marks platforms (or file shapes) the mmap fast path
// cannot serve; OpenMapped falls back to the heap open.
var errMmapUnsupported = errors.New("store: mmap unsupported")

// Mounted is an opened serving graph plus the resources behind it: for a
// mapped snapshot, the live memory mapping. The Store (and the Index arrays)
// may alias the mapping — Close only once nothing reaches the backing
// anymore. In-flight readers on a hot-swapped-away Mounted must be drained
// before Close (the catalog retires old mappings and unmaps them only at
// Catalog.Close).
type Mounted struct {
	// Store is the serving graph: zero-copy over the mapping, or on the heap
	// when the fast path fell back.
	Store *graph.Graph
	// Index is the snapshot's precomputed index section (nil when absent).
	// Its arrays may alias the mapping and are read-only.
	Index *Index
	// Info describes the on-disk snapshot (zero value for text-format mounts).
	Info SnapshotInfo

	data []byte // the mmap region; nil when the backing is heap-resident
}

// Mapped reports whether the backing serves zero-copy from a memory mapping.
func (m *Mounted) Mapped() bool { return m != nil && m.data != nil }

// MappedBytes returns the size of the live mapping (0 when heap-resident).
func (m *Mounted) MappedBytes() int64 {
	if m == nil {
		return 0
	}
	return int64(len(m.data))
}

// Snapshot adapts the Mounted graph to the *Snapshot shape shared with the
// heap open paths.
func (m *Mounted) Snapshot() *Snapshot {
	return &Snapshot{Graph: m.Store, Index: m.Index, Info: m.Info}
}

// Close unmaps the snapshot. The Store and Index become invalid; accessing
// them afterwards faults. Close is a no-op for heap-resident backings and is
// not safe to call while readers are live.
func (m *Mounted) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	m.Store = nil
	m.Index = nil
	return munmap(data)
}

// OpenMapped opens the snapshot at path for zero-copy serving. A version-2
// aligned snapshot maps read-only and serves straight from the page cache —
// O(1) in the graph size (only the header, section table and dictionary are
// touched); a legacy snapshot or an mmap-less platform falls back to the
// heap open, returning a Mounted with Mapped() == false.
//
// The mapped fast path validates the header and section table but — by
// design — not the payload checksum or per-element structure: both were
// validated when the snapshot was written (and OpenFile re-verifies them on
// any heap open). A torn or corrupted file still fails fast on the O(1)
// header/table/shape checks.
func OpenMapped(path string) (*Mounted, error) {
	if err := faults.Check("snapshot.open"); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(len(magic))+4 {
		return nil, fmt.Errorf("%s: not a snapshot (%d bytes)", path, size)
	}
	var head [16]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return heapFallback(path) // too short to map: the heap open says why
	}
	if *(*[8]byte)(head[:8]) != magic {
		return nil, fmt.Errorf("%s: not a snapshot file", path)
	}
	if binary.LittleEndian.Uint32(head[8:]) != Version2 || binary.LittleEndian.Uint32(head[12:])&flagCompressed != 0 {
		return heapFallback(path) // legacy v1 or compressed layout: not mappable
	}
	data, err := mmapFile(f, size)
	if err != nil {
		if errors.Is(err, errMmapUnsupported) {
			return heapFallback(path)
		}
		return nil, fmt.Errorf("%s: mmap: %w", path, err)
	}
	snap, err := openV2(data, true)
	if err != nil {
		munmap(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Mounted{Store: snap.Graph, Index: snap.Index, Info: snap.Info, data: data}, nil
}

// heapFallback is the non-zero-copy path of OpenMapped: a fully verified
// heap open wrapped in a Mounted with no mapping.
func heapFallback(path string) (*Mounted, error) {
	snap, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &Mounted{Store: snap.Graph, Index: snap.Index, Info: snap.Info}, nil
}

// MountGraphFile is OpenGraphFile's zero-copy sibling: an aligned v2
// snapshot maps read-only, a legacy one heap-opens, anything else parses as
// the text exchange format. The one mapped-serving open path for catalog and
// CLI.
func MountGraphFile(path string) (*Mounted, error) {
	info, err := DetectFile(path)
	if err != nil {
		return nil, err
	}
	if info.Version != 0 {
		return OpenMapped(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := dataset.LoadGraph(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Mounted{Store: g}, nil
}

// castI32s reinterprets a little-endian byte section as []int32 without
// copying. A misaligned base (cannot happen for sections of an aligned
// mapping, but cheap to guard) falls back to a heap decode.
func castI32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 != 0 || !hostLittleEndian() {
		return decodeI32s(b)
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func castF64s(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 || !hostLittleEndian() {
		return decodeF64s(b)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// hostLittleEndian reports whether the host byte order matches the on-disk
// little-endian encoding; big-endian hosts decode instead of casting.
func hostLittleEndian() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}
