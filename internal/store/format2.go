package store

// Version 2 of the snapshot format — the one layout this build writes: the
// mmap-ready aligned section table.
//
// # Format (version 2)
//
// All integers are little-endian. The file is a fixed header, a section
// table, the section payloads, and a trailing CRC:
//
//	magic    [8]byte  "SEASNAP\x00"
//	version  uint32   2
//	flags    uint32   bit 0: index sections present; bit 1: legacy compressed adjacency
//	nsec     uint32   number of section-table entries
//	reserved uint32   0
//	table    nsec × { id uint32, reserved uint32, off uint64, len uint64 }
//	...section payloads, each at an 8-byte-aligned file offset...
//	crc      uint32   CRC-32 (Castagnoli) of every preceding byte
//
// Section offsets are absolute file offsets; the gap between sections is
// zero padding. Every section offset is a multiple of 8, so a mapped
// snapshot's int32/int64/float64 payloads can be reinterpreted in place
// without copying (see OpenMapped). Sections appear in the table in
// ascending file order.
//
// Section IDs and payloads:
//
//	 1 meta       n uint64, edges uint64, textLen uint64, numDim uint32, dictLen uint32
//	 2 offsets    [n+1]int32   CSR element offsets
//	 3 adj        [2·edges]int32
//	 4 packoff    [n+1]int64   per-node byte offsets into packblob (legacy, read only)
//	 5 packblob   varint bytes (legacy, read only)
//	 6 textoff    [n+1]int32
//	 7 text       [textLen]int32
//	 8 num        [n·numDim]float64
//	 9 dict       dictLen × (uint32 byteLen + bytes)
//	10 coreness   [n]int32     (index only)
//	11 nodetruss  [n]int32     (index only, optional)
//	12 normmin    [numDim]float64 (index only)
//	13 normmax    [numDim]float64 (index only)
//
// Earlier builds could write the adjacency compressed instead (flag bit 1):
// packoff and packblob in place of adj, each node's sorted neighbor list
// as uvarints — the first neighbor as its value, every later one as the
// delta to its predecessor. Such a file is read-only legacy: every open
// decodes it into a flat heap adjacency and validates it in full, nothing
// writes it, and `seacli pack -load old.snap -out new.snap` repacks it.
//
// Open/OpenFile verify the trailing checksum and the structural invariants
// before serving (heap open). OpenMapped validates only the header and
// section table — O(1) in the graph size — and trusts payload bytes that
// were validated when written; that is the zero-copy boot path.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/cserr"
	"repro/internal/graph"
)

// Version2 is the aligned section-table snapshot format version.
const Version2 = 2

const (
	flagCompressed = 1 << 1

	v2HeaderLen   = 24
	v2TableEntry  = 24
	v2MetaLen     = 32
	v2MaxSections = 64
)

// Section IDs of the v2 layout.
const (
	secMeta uint32 = iota + 1
	secOffsets
	secAdj
	secPackOff
	secPackBlob
	secTextOff
	secText
	secNum
	secDict
	secCoreness
	secNodeTruss
	secNormMin
	secNormMax
)

var sectionNames = map[uint32]string{
	secMeta:      "meta",
	secOffsets:   "offsets",
	secAdj:       "adj",
	secPackOff:   "packoff",
	secPackBlob:  "packblob",
	secTextOff:   "textoff",
	secText:      "text",
	secNum:       "num",
	secDict:      "dict",
	secCoreness:  "coreness",
	secNodeTruss: "nodetruss",
	secNormMin:   "normmin",
	secNormMax:   "normmax",
}

func sectionName(id uint32) string {
	if n, ok := sectionNames[id]; ok {
		return n
	}
	return fmt.Sprintf("section#%d", id)
}

// PackOptions selects nothing: WriteSnapshot emits one layout. It stays
// declared only because the benchmark module passes PackOptions{Align:
// true} to PackSnapshotFileOpts.
type PackOptions struct {
	// Align is inert: every written snapshot is the aligned v2 layout.
	Align bool
}

// WriteSnapshot serializes g and idx (nil for graph-only) to w in the aligned
// v2 layout. It is the only snapshot encoder.
func WriteSnapshot(w io.Writer, g *graph.Graph, idx *Index) error {
	if g == nil {
		return fmt.Errorf("store: nil graph")
	}
	raw := g.Export()
	n := g.NumNodes()
	if idx != nil {
		if len(idx.Coreness) != n {
			return fmt.Errorf("store: index coreness length %d, graph has %d nodes", len(idx.Coreness), n)
		}
		if idx.NodeTruss != nil && len(idx.NodeTruss) != n {
			return fmt.Errorf("store: index truss length %d, graph has %d nodes", len(idx.NodeTruss), n)
		}
		if len(idx.NormMin) != raw.NumDim || len(idx.NormMax) != raw.NumDim {
			return fmt.Errorf("store: index bounds width %d/%d, graph NumDim %d",
				len(idx.NormMin), len(idx.NormMax), raw.NumDim)
		}
	}

	// Meta payload.
	meta := make([]byte, v2MetaLen)
	binary.LittleEndian.PutUint64(meta[0:], uint64(n))
	binary.LittleEndian.PutUint64(meta[8:], uint64(g.NumEdges()))
	binary.LittleEndian.PutUint64(meta[16:], uint64(len(raw.Text)))
	binary.LittleEndian.PutUint32(meta[24:], uint32(raw.NumDim))
	binary.LittleEndian.PutUint32(meta[28:], uint32(len(raw.DictNames)))

	// Dict payload (length-prefixed names, materialized to know its size).
	var dictLen int
	for _, name := range raw.DictNames {
		dictLen += 4 + len(name)
	}
	dict := make([]byte, 0, dictLen)
	var b4 [4]byte
	for _, name := range raw.DictNames {
		binary.LittleEndian.PutUint32(b4[:], uint32(len(name)))
		dict = append(dict, b4[:]...)
		dict = append(dict, name...)
	}

	type sec struct {
		id    uint32
		size  int64
		write func(e *encoder)
	}
	secs := []sec{
		{secMeta, v2MetaLen, func(e *encoder) { e.bytes(meta) }},
		{secOffsets, 4 * int64(len(raw.Offsets)), func(e *encoder) { e.i32s(raw.Offsets) }},
		{secAdj, 4 * int64(len(raw.Adj)), func(e *encoder) { e.i32s(raw.Adj) }},
		{secTextOff, 4 * int64(len(raw.TextOff)), func(e *encoder) { e.i32s(raw.TextOff) }},
		{secText, 4 * int64(len(raw.Text)), func(e *encoder) { e.i32s(raw.Text) }},
		{secNum, 8 * int64(len(raw.Num)), func(e *encoder) { e.f64s(raw.Num) }},
		{secDict, int64(len(dict)), func(e *encoder) { e.bytes(dict) }},
	}
	if idx != nil {
		secs = append(secs, sec{secCoreness, 4 * int64(len(idx.Coreness)), func(e *encoder) { e.i32s(idx.Coreness) }})
		if idx.NodeTruss != nil {
			secs = append(secs, sec{secNodeTruss, 4 * int64(len(idx.NodeTruss)), func(e *encoder) { e.i32s(idx.NodeTruss) }})
		}
		secs = append(secs,
			sec{secNormMin, 8 * int64(len(idx.NormMin)), func(e *encoder) { e.f64s(idx.NormMin) }},
			sec{secNormMax, 8 * int64(len(idx.NormMax)), func(e *encoder) { e.f64s(idx.NormMax) }},
		)
	}

	// Lay out: header, table, then 8-byte-aligned payloads.
	offs := make([]int64, len(secs))
	pos := int64(v2HeaderLen + v2TableEntry*len(secs))
	for i, s := range secs {
		pos = align8(pos)
		offs[i] = pos
		pos += s.size
	}

	crc := crc32.New(castagnoli)
	ew := &encoder{w: io.MultiWriter(w, crc)}
	ew.bytes(magic[:])
	ew.u32(Version2)
	var flags uint32
	if idx != nil {
		flags |= flagIndex
	}
	ew.u32(flags)
	ew.u32(uint32(len(secs)))
	ew.u32(0)
	for i, s := range secs {
		ew.u32(s.id)
		ew.u32(0)
		ew.u64(uint64(offs[i]))
		ew.u64(uint64(s.size))
	}
	var pad [8]byte
	written := int64(v2HeaderLen + v2TableEntry*len(secs))
	for i, s := range secs {
		if gap := offs[i] - written; gap > 0 {
			ew.bytes(pad[:gap])
		}
		s.write(ew)
		written = offs[i] + s.size
	}
	if ew.err != nil {
		return ew.err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

func align8(x int64) int64 { return (x + 7) &^ 7 }

// v2section is one parsed section-table entry.
type v2section struct {
	id   uint32
	off  int64
	size int64
}

// parseV2Table parses and validates the v2 header and section table from the
// file's leading bytes. fileSize is the total file size (trailer included);
// head must hold at least the header and table. The validation is O(table),
// not O(file) — it is the entirety of what a mapped open checks.
func parseV2Table(head []byte, fileSize int64) (flags uint32, secs []v2section, err error) {
	if len(head) < v2HeaderLen {
		return 0, nil, fmt.Errorf("%w: section %q truncated: %d bytes is shorter than a v2 header",
			cserr.ErrSnapshotCorrupt, "header", len(head))
	}
	flags = binary.LittleEndian.Uint32(head[12:])
	if flags&^uint32(flagIndex|flagCompressed) != 0 {
		return 0, nil, fmt.Errorf("%w: unknown flags %#x", cserr.ErrSnapshotVersion, flags)
	}
	nsec := int(binary.LittleEndian.Uint32(head[16:]))
	if nsec <= 0 || nsec > v2MaxSections {
		return 0, nil, fmt.Errorf("%w: section count %d outside [1,%d]", cserr.ErrSnapshotCorrupt, nsec, v2MaxSections)
	}
	tableEnd := v2HeaderLen + v2TableEntry*nsec
	if len(head) < tableEnd {
		return 0, nil, fmt.Errorf("%w: section %q truncated at %d bytes (table needs %d)",
			cserr.ErrSnapshotCorrupt, "table", len(head), tableEnd)
	}
	secs = make([]v2section, nsec)
	prevEnd := int64(tableEnd)
	for i := range secs {
		e := head[v2HeaderLen+v2TableEntry*i:]
		s := v2section{
			id:   binary.LittleEndian.Uint32(e),
			off:  int64(binary.LittleEndian.Uint64(e[8:])),
			size: int64(binary.LittleEndian.Uint64(e[16:])),
		}
		name := sectionName(s.id)
		if s.off%8 != 0 {
			return 0, nil, fmt.Errorf("%w: section %q at unaligned offset %d", cserr.ErrSnapshotCorrupt, name, s.off)
		}
		if s.off < prevEnd || s.size < 0 || s.off > fileSize || s.size > fileSize-s.off {
			return 0, nil, fmt.Errorf("%w: section %q truncated: spans [%d,%d) of a %d-byte snapshot",
				cserr.ErrSnapshotCorrupt, name, s.off, s.off+s.size, fileSize)
		}
		if s.off+s.size > fileSize-4 {
			return 0, nil, fmt.Errorf("%w: section %q truncated: overlaps the checksum trailer",
				cserr.ErrSnapshotCorrupt, name)
		}
		prevEnd = s.off + s.size
		secs[i] = s
	}
	return flags, secs, nil
}

func findSection(secs []v2section, id uint32) (v2section, bool) {
	for _, s := range secs {
		if s.id == id {
			return s, true
		}
	}
	return v2section{}, false
}

// v2Meta is the decoded meta section.
type v2Meta struct {
	n       int
	edges   int
	textLen int
	numDim  int
	dictLen int
}

func parseV2Meta(data []byte, secs []v2section) (v2Meta, error) {
	s, ok := findSection(secs, secMeta)
	if !ok || s.size < v2MetaLen {
		return v2Meta{}, fmt.Errorf("%w: section %q missing or short", cserr.ErrSnapshotCorrupt, "meta")
	}
	b := data[s.off : s.off+v2MetaLen]
	m := v2Meta{
		n:       int(binary.LittleEndian.Uint64(b[0:])),
		edges:   int(binary.LittleEndian.Uint64(b[8:])),
		textLen: int(binary.LittleEndian.Uint64(b[16:])),
		numDim:  int(binary.LittleEndian.Uint32(b[24:])),
		dictLen: int(binary.LittleEndian.Uint32(b[28:])),
	}
	if m.n < 0 || m.edges < 0 || m.textLen < 0 || m.numDim < 0 || m.dictLen < 0 {
		return v2Meta{}, fmt.Errorf("%w: section %q holds negative counts", cserr.ErrSnapshotCorrupt, "meta")
	}
	if m.numDim > 0 && m.n > math.MaxInt/m.numDim {
		return v2Meta{}, fmt.Errorf("%w: section %q: numDim %d overflows", cserr.ErrSnapshotCorrupt, "meta", m.numDim)
	}
	return m, nil
}

// sectionBytes returns the payload of section id, checking its exact size
// (want < 0 accepts any: the dictionary and the packed blob carry their own
// lengths).
func sectionBytes(data []byte, secs []v2section, id uint32, want int64) ([]byte, error) {
	s, ok := findSection(secs, id)
	if !ok {
		return nil, fmt.Errorf("%w: section %q missing", cserr.ErrSnapshotCorrupt, sectionName(id))
	}
	if want >= 0 && s.size != want {
		return nil, fmt.Errorf("%w: section %q is %d bytes, want %d",
			cserr.ErrSnapshotCorrupt, sectionName(id), s.size, want)
	}
	return data[s.off : s.off+s.size], nil
}

// openV2 is the one walk over a v2 snapshot's sections, shared by both
// opens, which differ only in how a section becomes a slice and in what
// they verify. The heap open (mapped false) checks the trailing checksum,
// decodes every section into fresh heap slices and validates the structure
// element by element. The mapped open reinterprets the sections of a live
// mapping in place and trusts the payload validation done when the snapshot
// was written, keeping only the O(1) shape checks that make the accessors
// memory-safe. Either way a failure wraps ErrSnapshotCorrupt (or, for an
// unknown flag, ErrSnapshotVersion).
func openV2(data []byte, mapped bool) (*Snapshot, error) {
	flags, secs, err := parseV2Table(data, int64(len(data)))
	if err != nil {
		return nil, err
	}
	i32s, f64s := decodeI32s, decodeF64s
	if mapped {
		i32s, f64s = castI32s, castF64s
	} else {
		body, tail := data[:len(data)-4], data[len(data)-4:]
		if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
			return nil, fmt.Errorf("%w: checksum mismatch (got %08x, stored %08x)", cserr.ErrSnapshotCorrupt, got, want)
		}
	}
	meta, err := parseV2Meta(data, secs)
	if err != nil {
		return nil, err
	}
	i32sec := func(id uint32, n int) ([]int32, error) {
		b, err := sectionBytes(data, secs, id, 4*int64(n))
		if err != nil {
			return nil, err
		}
		return i32s(b), nil
	}
	f64sec := func(id uint32, n int) ([]float64, error) {
		b, err := sectionBytes(data, secs, id, 8*int64(n))
		if err != nil {
			return nil, err
		}
		return f64s(b), nil
	}

	offsets, err := i32sec(secOffsets, meta.n+1)
	if err != nil {
		return nil, err
	}
	textOff, err := i32sec(secTextOff, meta.n+1)
	if err != nil {
		return nil, err
	}
	text, err := i32sec(secText, meta.textLen)
	if err != nil {
		return nil, err
	}
	num, err := f64sec(secNum, meta.n*meta.numDim)
	if err != nil {
		return nil, err
	}
	// The dictionary is always heap: Go strings cannot alias a mapping
	// safely across unmap. O(vocabulary), not O(graph).
	dict, err := sectionBytes(data, secs, secDict, -1)
	if err != nil {
		return nil, err
	}
	names, err := decodeDict(dict, meta.dictLen)
	if err != nil {
		return nil, err
	}

	// A legacy compressed adjacency decodes to the flat array, so the
	// result is checked in full even when the other sections are mapped.
	compressed := flags&flagCompressed != 0
	var adj []int32
	if compressed {
		adj, err = unpackAdjacency(data, secs, meta, offsets)
	} else {
		adj, err = i32sec(secAdj, 2*meta.edges)
	}
	if err != nil {
		return nil, err
	}
	fromRaw := graph.FromRaw
	if mapped && !compressed {
		fromRaw = graph.FromRawTrusted
	}
	g, err := fromRaw(graph.Raw{
		Offsets: offsets, Adj: adj,
		TextOff: textOff, Text: text,
		NumDim: meta.numDim, Num: num,
		DictNames: names,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", cserr.ErrSnapshotCorrupt, err)
	}

	var idx *Index
	if flags&flagIndex != 0 {
		idx = &Index{}
		if idx.Coreness, err = i32sec(secCoreness, meta.n); err != nil {
			return nil, err
		}
		if _, ok := findSection(secs, secNodeTruss); ok {
			if idx.NodeTruss, err = i32sec(secNodeTruss, meta.n); err != nil {
				return nil, err
			}
		}
		if idx.NormMin, err = f64sec(secNormMin, meta.numDim); err != nil {
			return nil, err
		}
		if idx.NormMax, err = f64sec(secNormMax, meta.numDim); err != nil {
			return nil, err
		}
	}

	return &Snapshot{Graph: g, Index: idx, Info: SnapshotInfo{
		Version:    Version2,
		Sections:   sectionList(secs),
		Aligned:    true,
		Compressed: compressed,
		Index:      idx != nil,
		Bytes:      int64(len(data)),
	}}, nil
}

// unpackAdjacency decodes a legacy compressed adjacency (the packoff and
// packblob sections) into the flat CSR neighbor array on the heap. Each
// node's run must consume exactly its byte span and yield exactly its
// element count, every neighbor in range; order, loops and symmetry are
// left to graph.FromRaw.
func unpackAdjacency(data []byte, secs []v2section, meta v2Meta, offsets []int32) ([]int32, error) {
	b, err := sectionBytes(data, secs, secPackOff, 8*int64(meta.n+1))
	if err != nil {
		return nil, err
	}
	packOff := decodeI64s(b)
	blob, err := sectionBytes(data, secs, secPackBlob, -1)
	if err != nil {
		return nil, err
	}
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: section %q: %s", cserr.ErrSnapshotCorrupt, "packblob", fmt.Sprintf(format, args...))
	}
	// Every neighbor takes at least one byte, which bounds the allocation.
	if meta.edges > len(blob)/2 || packOff[0] != 0 || packOff[meta.n] != int64(len(blob)) {
		return nil, corrupt("%d edges in %d bytes spanning [%d,%d]", meta.edges, len(blob), packOff[0], packOff[meta.n])
	}
	adj := make([]int32, 0, 2*meta.edges)
	n := uint64(meta.n)
	for v := 0; v < meta.n; v++ {
		lo, hi := packOff[v], packOff[v+1]
		count := int(offsets[v+1]) - int(offsets[v])
		if int(offsets[v]) != len(adj) || count < 0 || count > cap(adj)-len(adj) || hi < lo || hi > int64(len(blob)) {
			return nil, corrupt("node %d: run [%d,%d) of %d neighbors out of bounds", v, lo, hi, count)
		}
		run := blob[lo:hi]
		var prev uint64
		for i := 0; i < count; i++ {
			u, k := binary.Uvarint(run)
			if k <= 0 || u >= n {
				return nil, corrupt("node %d: bad varint at neighbor %d", v, i)
			}
			run = run[k:]
			if i > 0 {
				u += prev // the first neighbor is stored as is, the rest as deltas
			}
			if u >= n {
				return nil, corrupt("node %d: neighbor %d out of range [0,%d)", v, u, n)
			}
			adj = append(adj, int32(u))
			prev = u
		}
		if len(run) != 0 {
			return nil, corrupt("node %d: %d trailing bytes in neighbor run", v, len(run))
		}
	}
	if len(adj) != cap(adj) {
		return nil, corrupt("%d neighbors decoded, want %d", len(adj), cap(adj))
	}
	return adj, nil
}

func sectionList(secs []v2section) []string {
	out := make([]string, len(secs))
	for i, s := range secs {
		out[i] = sectionName(s.id)
	}
	return out
}

func decodeI32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeI64s(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func decodeF64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func decodeDict(b []byte, count int) ([]string, error) {
	names := make([]string, 0, min(count, 1<<20))
	off := 0
	for i := 0; i < count; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("%w: section %q truncated at name %d", cserr.ErrSnapshotCorrupt, "dict", i)
		}
		l := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if l < 0 || off+l > len(b) {
			return nil, fmt.Errorf("%w: section %q truncated at name %d", cserr.ErrSnapshotCorrupt, "dict", i)
		}
		names = append(names, string(b[off:off+l]))
		off += l
	}
	if off != len(b) {
		return nil, fmt.Errorf("%w: section %q has %d trailing bytes", cserr.ErrSnapshotCorrupt, "dict", len(b)-off)
	}
	return names, nil
}
