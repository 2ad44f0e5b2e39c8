package store_test

// Tests for the version-2 snapshot layout: the heap and mapped opens of the
// aligned layout and the heap open of a legacy compressed file answering
// byte-identically, truncation detection at every section boundary with the
// failing section named, and DetectFile descriptions.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
	"repro/internal/store"
)

// readFile returns the bytes at path.
func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// writeTemp drops data into a fresh temp file and returns its path.
func writeTemp(t testing.TB, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mmapExpected reports whether OpenMapped must actually map on this platform
// (the unix build tag); elsewhere the heap fallback is the correct outcome.
func mmapExpected() bool {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		return false
	}
	return true
}

// outcomes runs a fixed request battery and returns the marshalled results,
// the byte-identity currency of the round-trip property tests.
func outcomes(t testing.TB, eng *engine.Engine, q graph.NodeID, k int) [][]byte {
	t.Helper()
	reqs := []query.Request{
		{Query: q, Method: query.MethodSEA, K: k, Seed: 1},
		{Query: q, Method: query.MethodSEA, K: k, Seed: 1, Model: sea.KTruss},
		{Query: q, Method: query.MethodExact, K: k, MaxStates: 20000},
		{Query: q, Method: query.MethodStructural, K: k},
		{Query: q, Method: query.MethodACQ, K: k},
	}
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		res, err := eng.Query(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Method, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestV2RoundTripOutcomes is the tentpole property test: the same request
// battery answers byte-identically across every snapshot open — the heap
// and mapped opens of the aligned layout, and both opens of the legacy
// compressed fixture, which always lands on the heap (the legacy v1 file is
// pinned by TestLegacyV1Fixture).
func TestV2RoundTripOutcomes(t *testing.T) {
	d, eng := buildEngine(t, "facebook", 0.3)
	q := d.QueryNodes(1, 4, 7)[0]
	want := outcomes(t, eng, q, 4)

	aligned := snapshotBytes(t, eng)
	compressed := readFile(t, legacyFacebookFixture)

	check := func(t *testing.T, snap *store.Snapshot) {
		t.Helper()
		if snap.Index == nil {
			t.Fatal("snapshot lost its index section")
		}
		if !reflect.DeepEqual(snap.Graph.Export(), d.Graph.Export()) {
			t.Fatal("reopened CSR differs from the generated graph")
		}
		reopened, err := engine.NewFromSnapshot(snap, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := outcomes(t, reopened, q, 4)
		for i := range want {
			if !bytes.Equal(want[i], got[i]) {
				t.Errorf("request %d outcome differs:\nfresh:    %s\nreopened: %s", i, want[i], got[i])
			}
		}
	}

	heapVariants := map[string][]byte{
		"v2-aligned-heap":    aligned,
		"v2-compressed-heap": compressed,
	}
	for name, data := range heapVariants {
		t.Run(name, func(t *testing.T) {
			snap, err := store.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			check(t, snap)
		})
	}
	mappedVariants := map[string]struct {
		data   []byte
		mapped bool
	}{
		"v2-aligned-mapped":    {aligned, mmapExpected()},
		"v2-compressed-mapped": {compressed, false},
	}
	for name, v := range mappedVariants {
		t.Run(name, func(t *testing.T) {
			m, err := store.OpenMapped(writeTemp(t, "g.snap", v.data))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.Mapped() != v.mapped {
				t.Fatalf("Mapped() = %v, want %v", m.Mapped(), v.mapped)
			}
			check(t, m.Snapshot())
		})
	}
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalF64(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// v2Section is a section-table entry re-parsed by the test straight from the
// documented layout, pinning the on-disk format independent of the decoder.
type v2Section struct {
	name string
	off  int64
	size int64
}

var v2SectionNames = map[uint32]string{
	1: "meta", 2: "offsets", 3: "adj", 4: "packoff", 5: "packblob",
	6: "textoff", 7: "text", 8: "num", 9: "dict",
	10: "coreness", 11: "nodetruss", 12: "normmin", 13: "normmax",
	14: "edgetruss",
}

func parseV2SectionTable(t testing.TB, data []byte) []v2Section {
	t.Helper()
	if string(data[:8]) != "SEASNAP\x00" || binary.LittleEndian.Uint32(data[8:]) != store.Version2 {
		t.Fatal("not a v2 snapshot")
	}
	nsec := int(binary.LittleEndian.Uint32(data[16:]))
	secs := make([]v2Section, nsec)
	for i := range secs {
		e := data[24+24*i:]
		name, ok := v2SectionNames[binary.LittleEndian.Uint32(e)]
		if !ok {
			t.Fatalf("unknown section id %d", binary.LittleEndian.Uint32(e))
		}
		secs[i] = v2Section{
			name: name,
			off:  int64(binary.LittleEndian.Uint64(e[8:])),
			size: int64(binary.LittleEndian.Uint64(e[16:])),
		}
		if secs[i].off%8 != 0 {
			t.Fatalf("section %q at unaligned offset %d", name, secs[i].off)
		}
	}
	return secs
}

// TestV2TruncationNamesSection truncates an aligned snapshot and the legacy
// compressed fixture inside every section (plus mid-header and mid-table)
// and asserts each failure is ErrSnapshotCorrupt naming the failing section.
func TestV2TruncationNamesSection(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	for _, layout := range []struct {
		name string
		data []byte
	}{
		{"aligned", snapshotBytes(t, eng)},
		{"compressed", readFile(t, legacyFacebookFixture)},
	} {
		t.Run(layout.name, func(t *testing.T) {
			data := layout.data
			secs := parseV2SectionTable(t, data)

			cases := []struct {
				wantSection string
				cut         int64 // truncate the file to this many bytes
			}{
				{"header", 20},     // past Decode's generic minimum, short of the v2 header
				{"table", 24 + 12}, // mid first table entry
			}
			for _, s := range secs {
				// Cut mid-payload; zero-size sections cut right at their
				// start, which still leaves the table's span dangling.
				cases = append(cases, struct {
					wantSection string
					cut         int64
				}{s.name, s.off + s.size/2})
			}
			for _, c := range cases {
				_, err := store.Decode(data[:c.cut])
				if !errors.Is(err, cserr.ErrSnapshotCorrupt) {
					t.Errorf("cut at %d: got %v, want ErrSnapshotCorrupt", c.cut, err)
					continue
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", c.wantSection)) {
					t.Errorf("cut at %d: error %q does not name section %q", c.cut, err, c.wantSection)
				}
				// The mapped open must reject the same truncation with its
				// O(1) table validation alone.
				if _, err := store.OpenMapped(writeTemp(t, "trunc.snap", data[:c.cut])); err == nil {
					t.Errorf("cut at %d: OpenMapped accepted a truncated snapshot", c.cut)
				}
			}
		})
	}
}

// resign replaces data's trailing checksum with the one its body now has,
// so a damaged section reaches the decoder's own checks.
func resign(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestV2EdgeTrussSectionChecked: an edgetruss section one edge short of the
// meta section's edge count is rejected by both opens as ErrSnapshotCorrupt
// naming the section, and the heap open's element check rejects an edge
// trussness below 2 (and a negative coreness or node trussness), which the
// writer, checking only lengths, lets through.
func TestV2EdgeTrussSectionChecked(t *testing.T) {
	d, eng := buildEngine(t, "facebook", 0.2)
	good := snapshotBytes(t, eng)
	if snap := mustDecode(t, good); len(snap.Index.EdgeTruss) != snap.Graph.NumEdges() {
		t.Fatalf("written edgetruss has %d entries for %d edges", len(snap.Index.EdgeTruss), snap.Graph.NumEdges())
	}

	t.Run("length", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		found := false
		for i, s := range parseV2SectionTable(t, bad) {
			if s.name == "edgetruss" {
				binary.LittleEndian.PutUint64(bad[24+24*i+16:], uint64(s.size-4))
				found = true
			}
		}
		if !found {
			t.Fatal("no edgetruss section written")
		}
		resign(bad)
		_, heapErr := store.Decode(bad)
		_, mapErr := store.OpenMapped(writeTemp(t, "short.snap", bad))
		for name, err := range map[string]error{"Decode": heapErr, "OpenMapped": mapErr} {
			if !errors.Is(err, cserr.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), `"edgetruss"`) {
				t.Errorf("%s: got %v, want ErrSnapshotCorrupt naming \"edgetruss\"", name, err)
			}
		}
	})

	for _, c := range []struct {
		section string
		set     func(idx *store.Index)
	}{
		{"edgetruss", func(idx *store.Index) { idx.EdgeTruss[len(idx.EdgeTruss)/2] = 1 }},
		{"edgetruss", func(idx *store.Index) { idx.EdgeTruss[0] = 0 }},
		{"nodetruss", func(idx *store.Index) { idx.NodeTruss[3] = -1 }},
		{"coreness", func(idx *store.Index) { idx.Coreness[5] = -2 }},
	} {
		idx := *eng.ExportIndex()
		idx.Coreness, idx.NodeTruss, idx.EdgeTruss = slices.Clone(idx.Coreness), slices.Clone(idx.NodeTruss), slices.Clone(idx.EdgeTruss)
		c.set(&idx)
		var buf bytes.Buffer
		if err := store.WriteSnapshot(&buf, d.Graph, &idx); err != nil {
			t.Fatal(err)
		}
		_, err := store.Decode(buf.Bytes())
		if !errors.Is(err, cserr.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("%q", c.section)) {
			t.Errorf("%s below its floor: got %v, want ErrSnapshotCorrupt naming %q", c.section, err, c.section)
		}
	}
}

// TestV2CorruptionDetection covers the non-truncation corruption classes of
// the v2 heap open: payload bit flips (checksum), trailing garbage, and
// unknown header flags.
func TestV2CorruptionDetection(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	aligned := snapshotBytes(t, eng)
	good := readFile(t, legacyFacebookFixture)

	t.Run("bit flip", func(t *testing.T) {
		for _, at := range []int{30, len(good) / 4, len(good) / 2, len(good) - 5} {
			bad := append([]byte(nil), good...)
			bad[at] ^= 0x40
			if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
				t.Errorf("flip at %d: got %v, want ErrSnapshotCorrupt", at, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 0, 0, 0, 0, 0, 0, 0, 0)
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
			t.Errorf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("unknown flags", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[12] |= 1 << 4
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotVersion) {
			t.Errorf("got %v, want ErrSnapshotVersion", err)
		}
	})
	// A required variable-size section retagged to an unknown id passes the
	// table validation; the mapped open (which skips the checksum of an
	// aligned file) must still classify the missing section as corruption,
	// as the heap open does.
	t.Run("retagged section, mapped", func(t *testing.T) {
		for _, c := range []struct {
			layout  string
			data    []byte
			section string
		}{
			{"aligned", aligned, "dict"},
			{"compressed", good, "dict"},
			{"compressed", good, "packblob"},
		} {
			bad := append([]byte(nil), c.data...)
			for i, s := range parseV2SectionTable(t, bad) {
				if s.name == c.section {
					binary.LittleEndian.PutUint32(bad[24+24*i:], 63)
				}
			}
			_, err := store.OpenMapped(writeTemp(t, "retag.snap", bad))
			if !errors.Is(err, cserr.ErrSnapshotCorrupt) {
				t.Errorf("%s, %s retagged: got %v, want ErrSnapshotCorrupt", c.layout, c.section, err)
			}
		}
	})
}

func TestDetectFileV2(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	aligned := writeTemp(t, "aligned.snap", snapshotBytes(t, eng))
	compressed := legacyFacebookFixture

	info, err := store.DetectFile(aligned)
	if err != nil || !info.IsSnapshot() {
		t.Fatalf("aligned not detected: %+v %v", info, err)
	}
	if info.Version != store.Version2 || !info.Aligned || info.Compressed || !info.Index {
		t.Fatalf("aligned misdescribed: %+v", info)
	}
	if !hasSection(info.Sections, "adj") || hasSection(info.Sections, "packblob") {
		t.Fatalf("aligned sections wrong: %v", info.Sections)
	}
	if s := info.String(); !strings.Contains(s, "v2") || !strings.Contains(s, "aligned") {
		t.Fatalf("aligned description %q", s)
	}

	info, err = store.DetectFile(compressed)
	if err != nil || !info.Compressed || !info.Aligned {
		t.Fatalf("compressed misdescribed: %+v %v", info, err)
	}
	if hasSection(info.Sections, "adj") || !hasSection(info.Sections, "packoff") || !hasSection(info.Sections, "packblob") {
		t.Fatalf("compressed sections wrong: %v", info.Sections)
	}
	if s := info.String(); !strings.Contains(s, "compressed") {
		t.Fatalf("compressed description %q", s)
	}
}

func hasSection(secs []string, name string) bool {
	for _, s := range secs {
		if s == name {
			return true
		}
	}
	return false
}

// TestOpenMappedIndexAndLifecycle: the mapped open serves the identical
// index arrays, reports its mapping size, and Close invalidates the handle
// idempotently (nil handles included).
func TestOpenMappedIndexAndLifecycle(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	data := snapshotBytes(t, eng)
	path := writeTemp(t, "g.snap", data)

	snap, err := store.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := store.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() && m.MappedBytes() != int64(len(data)) {
		t.Fatalf("MappedBytes = %d, file is %d", m.MappedBytes(), len(data))
	}
	if m.Index == nil || snap.Index == nil {
		t.Fatal("index section lost")
	}
	if !equalI32(m.Index.Coreness, snap.Index.Coreness) ||
		!equalI32(m.Index.NodeTruss, snap.Index.NodeTruss) ||
		!equalF64(m.Index.NormMin, snap.Index.NormMin) ||
		!equalF64(m.Index.NormMax, snap.Index.NormMax) {
		t.Fatal("mapped index differs from heap open")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Mapped() || m.MappedBytes() != 0 {
		t.Fatal("closed handle still claims a mapping")
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilM *store.Mounted
	if nilM.Mapped() || nilM.Close() != nil {
		t.Fatal("nil Mounted misbehaves")
	}
}

// TestMountGraphFileText: a text file serves heap-resident through the same
// mount entry point, Mapped() == false.
func TestMountGraphFileText(t *testing.T) {
	d, _ := buildEngine(t, "facebook", 0.2)
	var text bytes.Buffer
	if err := dataset.WriteGraph(&text, d.Graph); err != nil {
		t.Fatal(err)
	}
	tm, err := store.MountGraphFile(writeTemp(t, "g.txt", text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tm.Mapped() || tm.Info.IsSnapshot() {
		t.Fatalf("text mount misdescribed: %+v", tm.Info)
	}
	if tm.Store.NumEdges() != d.Graph.NumEdges() {
		t.Fatal("text mount lost edges")
	}
}

// FuzzDecode feeds the snapshot decoder arbitrary bytes seeded with every
// on-disk layout and their truncations; the decoder must never panic, and
// anything it accepts must carry a usable graph.
func FuzzDecode(f *testing.F) {
	_, eng := buildEngine(f, "facebook", 0.1)
	v1 := readFile(f, legacyV1Fixture)
	aligned := snapshotBytes(f, eng)
	compressed := readFile(f, legacyFigure1Fixture)
	for _, seed := range [][]byte{v1, aligned, compressed} {
		f.Add(seed)
		for _, cut := range []int{0, 8, 16, 23, 24, len(seed) / 2, len(seed) - 1} {
			f.Add(append([]byte(nil), seed[:cut]...))
		}
	}
	// Misaligned/hostile table entries: flip bytes inside the header and the
	// first table entry of the aligned seed.
	for _, at := range []int{12, 16, 25, 32, 40} {
		bad := append([]byte(nil), aligned...)
		bad[at] ^= 0xff
		f.Add(bad)
	}
	// Cut inside the per-edge trussness section.
	for _, s := range parseV2SectionTable(f, aligned) {
		if s.name == "edgetruss" {
			f.Add(append([]byte(nil), aligned[:s.off+s.size/2]...))
		}
	}
	f.Add([]byte("SEASNAP\x00"))
	f.Add([]byte("n 10 2\nv 0 a,b 0.5,0.5\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := store.Decode(data)
		if err != nil {
			if !errors.Is(err, cserr.ErrSnapshotCorrupt) && !errors.Is(err, cserr.ErrSnapshotVersion) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		g := snap.Graph
		if g == nil {
			t.Fatal("accepted snapshot has no graph")
		}
		if g.NumNodes() < 0 || g.NumEdges() < 0 {
			t.Fatalf("negative shape: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
		}
		var buf []graph.NodeID
		for v := 0; v < g.NumNodes(); v++ {
			g.NeighborsInto(&buf, graph.NodeID(v))
		}
		if idx := snap.Index; idx != nil && idx.EdgeTruss != nil {
			if len(idx.EdgeTruss) != g.NumEdges() {
				t.Fatalf("edgetruss has %d entries for %d edges", len(idx.EdgeTruss), g.NumEdges())
			}
			if i := slices.IndexFunc(idx.EdgeTruss, func(x int32) bool { return x < 2 }); i >= 0 {
				t.Fatalf("edge %d has trussness %d", i, idx.EdgeTruss[i])
			}
		}
	})
}
