// Package store persists the full serving state of an attributed graph — the
// CSR arrays, the attribute dictionary, the text/numeric attribute columns,
// and the Engine's precomputed admission indexes — as one versioned,
// checksummed binary snapshot. A snapshot reopens into a ready-to-serve
// graph + index with zero parsing and zero recomputation, which is what
// makes boot-fast multi-dataset serving (internal/catalog) possible: the
// text exchange format of internal/dataset is the interchange form, the
// snapshot is the serving form.
//
// WriteSnapshot emits one layout: the version-2 aligned section table
// (format2.go), which OpenMapped serves zero-copy from the page cache. Two
// forms of earlier builds are read-only legacy: the version-1 stream
// (decodeV1 below) and the v2 layout with compressed adjacency. Every open
// path still decodes both into a heap *graph.Graph, nothing writes either,
// and `seacli pack -load old.snap -out new.snap` repacks one as aligned v2.
//
// # Guarantees
//
// WriteSnapshot produces a deterministic byte stream for a given graph +
// index. Open verifies the magic and version (cserr.ErrSnapshotVersion on
// mismatch), the trailing checksum, and the structural invariants of every
// array (offsets monotone, adjacency sorted/symmetric/loop-free, tokens
// within the dictionary — see graph.FromRaw); any violation reports
// cserr.ErrSnapshotCorrupt. A snapshot that opens without error is
// semantically identical to the state that was written: the same query
// yields a byte-identical outcome.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/graph"
)

// Version is the legacy stream format version. This build only reads it;
// Version2 is the one it writes.
const Version = 1

// magic identifies a snapshot stream; it is deliberately not valid UTF-8
// text so the text-format loader can never misread one.
var magic = [8]byte{'S', 'E', 'A', 'S', 'N', 'A', 'P', 0}

const flagIndex = 1 << 0

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Index is the serializable form of the Engine's precomputed per-graph
// state: the structural admission indexes and the attribute-metric
// normalization table. NodeTruss is optional on read, for files written
// before the truss index was always packed: an engine constructed over an
// index without it computes it at construction. NormMin/NormMax have the
// graph's NumDim width.
type Index struct {
	// Coreness holds each node's coreness, len NumNodes.
	Coreness []int32
	// NodeTruss holds each node's maximum incident-edge trussness, len
	// NumNodes, or nil in a file that predates it.
	NodeTruss []int32
	// NormMin/NormMax are the per-dimension numerical attribute bounds the
	// metric normalizer scales by, len NumDim.
	NormMin, NormMax []float64
}

// Snapshot is the reopened serving state: the graph and, when the snapshot
// carried one, the precomputed index.
type Snapshot struct {
	// Graph is the CSR graph, on the heap or over a mapping.
	Graph *graph.Graph
	Index *Index // nil when the snapshot has no index section
	// Info describes the on-disk form the snapshot came from (zero value
	// for text-format opens).
	Info SnapshotInfo
}

// Open reads one snapshot from r, verifying version, checksum and structure,
// and returns the ready-to-serve graph + index. Errors classify as
// cserr.ErrSnapshotVersion (wrong magic or version) or
// cserr.ErrSnapshotCorrupt (anything else wrong with the bytes).
func Open(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return Decode(data)
}

// OpenFile opens the snapshot at path. Unlike Open over an arbitrary
// reader, the file's size is known up front, so the bytes are read in one
// pre-sized allocation.
func OpenFile(path string) (*Snapshot, error) {
	if err := faults.Check("snapshot.open"); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// OpenGraphFile opens a graph file in either on-disk form, sniffing the
// snapshot magic to pick the decoder: a packed snapshot opens with its
// index, anything else parses as the text exchange format (Index nil). It
// is the one open-either-format path shared by the catalog and the CLI.
// (MountGraphFile is the zero-copy sibling.)
func OpenGraphFile(path string) (*Snapshot, error) {
	info, err := DetectFile(path)
	if err != nil {
		return nil, err
	}
	if info.IsSnapshot() {
		return OpenFile(path)
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
	return &Snapshot{Graph: g}, nil
}

// Decode is Open over bytes already in memory. It dispatches on the format
// version: 2 is the aligned section-table layout (see format2.go), 1 the
// read-only legacy stream below.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+8+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", cserr.ErrSnapshotCorrupt, len(data))
	}
	var head [8]byte
	copy(head[:], data)
	if head != magic {
		return nil, fmt.Errorf("%w: bad magic (not a snapshot file)", cserr.ErrSnapshotVersion)
	}
	switch v := binary.LittleEndian.Uint32(data[8:]); v {
	case Version:
		return decodeV1(data)
	case Version2:
		return openV2(data, false)
	default:
		return nil, fmt.Errorf("%w: version %d, this build reads %d and %d", cserr.ErrSnapshotVersion, v, Version, Version2)
	}
}

// decodeV1 decodes the legacy v1 stream: fixed-width little-endian integers,
// raw arrays whose lengths derive from the header fields.
//
//	magic    [8]byte  "SEASNAP\x00"
//	version  uint32   1
//	flags    uint32   bit 0: index section present
//
//	-- graph section --
//	n        uint64   number of nodes
//	a        uint64   len(adj) = 2·edges
//	offsets  [n+1]int32
//	adj      [a]int32
//	t        uint64   len(text)
//	textOff  [n+1]int32
//	text     [t]int32
//	numDim   uint32
//	num      [n·numDim]float64
//	dictLen  uint32
//	names    dictLen × (uint32 byteLen + bytes)
//
//	-- index section (iff flags bit 0) --
//	coreness [n]int32
//	hasTruss uint8
//	truss    [n]int32 (iff hasTruss)
//	normMin  [numDim]float64
//	normMax  [numDim]float64
//
//	crc      uint32   CRC-32 (Castagnoli) of every preceding byte
//
// The structural parse runs before
// the checksum so a truncated file reports the section the bytes ran out in
// (not a bare checksum mismatch); a file whose lengths parse but whose bytes
// are damaged still fails the checksum before any array is trusted.
func decodeV1(data []byte) (*Snapshot, error) {
	body, tail := data[:len(data)-4], data[len(data)-4:]
	d := &decoder{data: body, off: 12, sec: "header"}
	flags := d.u32()
	if d.err == nil && flags&^uint32(flagIndex) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", cserr.ErrSnapshotVersion, flags)
	}

	d.sec = "meta"
	n := d.count("nodes")
	a := d.count("adjacency")
	raw := graph.Raw{}
	d.sec = "offsets"
	raw.Offsets = d.i32s(n + 1)
	d.sec = "adj"
	raw.Adj = d.i32s(a)
	d.sec = "meta"
	t := d.count("text tokens")
	d.sec = "textoff"
	raw.TextOff = d.i32s(n + 1)
	d.sec = "text"
	raw.Text = d.i32s(t)
	d.sec = "meta"
	raw.NumDim = int(d.u32())
	if d.err == nil && (raw.NumDim < 0 || (raw.NumDim > 0 && n > math.MaxInt/raw.NumDim)) {
		d.fail(fmt.Errorf("numDim %d overflows", raw.NumDim))
	}
	d.sec = "num"
	raw.Num = d.f64s(n * raw.NumDim)
	d.sec = "dict"
	dictLen := int(d.u32())
	if d.err == nil {
		raw.DictNames = make([]string, 0, min(dictLen, 1<<20))
		for i := 0; i < dictLen && d.err == nil; i++ {
			raw.DictNames = append(raw.DictNames, d.str())
		}
	}

	var idx *Index
	if flags&flagIndex != 0 {
		d.sec = "coreness"
		idx = &Index{Coreness: d.i32s(n)}
		if d.u8() != 0 {
			d.sec = "nodetruss"
			idx.NodeTruss = d.i32s(n)
		}
		d.sec = "normmin"
		idx.NormMin = d.f64s(raw.NumDim)
		d.sec = "normmax"
		idx.NormMax = d.f64s(raw.NumDim)
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", cserr.ErrSnapshotCorrupt, d.err)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", cserr.ErrSnapshotCorrupt, len(body)-d.off)
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, stored %08x)", cserr.ErrSnapshotCorrupt, got, want)
	}
	g, err := graph.FromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", cserr.ErrSnapshotCorrupt, err)
	}
	info := SnapshotInfo{Version: Version, Index: idx != nil, Bytes: int64(len(data))}
	return &Snapshot{Graph: g, Index: idx, Info: info}, nil
}

// encoder writes fixed-width little-endian values, latching the first error.
type encoder struct {
	w   io.Writer
	err error
	buf [8]byte
}

func (e *encoder) bytes(b []byte) {
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.buf[:4], v)
	e.bytes(e.buf[:4])
}

func (e *encoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:8], v)
	e.bytes(e.buf[:8])
}

// i32s writes a whole int32 slice through one scratch buffer, chunked so
// large arrays do not double resident memory.
func (e *encoder) i32s(xs []int32) {
	const chunk = 16 * 1024
	buf := make([]byte, 0, 4*min(len(xs), chunk))
	for len(xs) > 0 && e.err == nil {
		nn := min(len(xs), chunk)
		buf = buf[:4*nn]
		for i, x := range xs[:nn] {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
		}
		e.bytes(buf)
		xs = xs[nn:]
	}
}

func (e *encoder) f64s(xs []float64) {
	const chunk = 8 * 1024
	buf := make([]byte, 0, 8*min(len(xs), chunk))
	for len(xs) > 0 && e.err == nil {
		nn := min(len(xs), chunk)
		buf = buf[:8*nn]
		for i, x := range xs[:nn] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
		}
		e.bytes(buf)
		xs = xs[nn:]
	}
}

// decoder reads fixed-width values from a byte slice with bounds checking,
// latching the first error. sec names the logical section being decoded so
// a truncated snapshot reports where the bytes ran out.
type decoder struct {
	data []byte
	off  int
	err  error
	sec  string
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.data) || d.off+n < d.off {
		d.fail(fmt.Errorf("section %q truncated at offset %d (need %d bytes)", d.sec, d.off, n))
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// count reads a uint64 array length and bounds it by what the remaining
// bytes could possibly hold, so corrupt headers cannot force huge
// allocations.
func (d *decoder) count(what string) int {
	b := d.take(8)
	if b == nil {
		return 0
	}
	v := binary.LittleEndian.Uint64(b)
	if v > uint64(len(d.data)) {
		d.fail(fmt.Errorf("%s count %d exceeds snapshot size", what, v))
		return 0
	}
	return int(v)
}

func (d *decoder) i32s(n int) []int32 {
	b := d.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (d *decoder) f64s(n int) []float64 {
	b := d.take(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func (d *decoder) str() string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
