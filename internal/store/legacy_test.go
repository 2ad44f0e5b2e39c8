package store_test

// Two on-disk forms are read-only legacy: the version-1 stream and the v2
// layout with compressed adjacency. Nothing in this build writes either, so
// the golden files below — packed by the last builds that had each encoder
// — are what keep every open path honest about still reading them. A third
// file is the aligned v2 layout as written before the edgetruss section
// existed, which every build must still mount.

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
)

const (
	// legacyV1Fixture is Figure 1's graph with its full index, as v1.
	legacyV1Fixture = "testdata/v1-figure1.snap"
	// legacyFigure1Fixture is the same, as v2 with compressed adjacency.
	legacyFigure1Fixture = "testdata/v2c-figure1.snap"
	// legacyFacebookFixture is the facebook analog at scale 0.3 with its
	// full index, as v2 with compressed adjacency: large enough that many
	// neighbor IDs take multi-byte varints.
	legacyFacebookFixture = "testdata/v2c-facebook-0.3.snap"
)

// figure1Engine rebuilds the fixture's graph from scratch (Figure 1's
// movies: a dense crime-drama core plus two dissimilar action movies) with
// the full index, independently of any snapshot decoder.
func figure1Engine(t testing.TB) *engine.Engine {
	t.Helper()
	b := graph.NewBuilder(12, 2)
	nums := [][2]float64{
		{9.2, 1.6e6}, {9.0, 1.1e6}, {8.7, 1.0e6}, {8.3, 550e3},
		{8.3, 320e3}, {7.9, 280e3}, {8.3, 750e3}, {7.5, 300e3},
		{7.6, 360e3}, {8.2, 500e3}, {6.2, 6.7e3}, {6.5, 9e3},
	}
	for i, num := range nums {
		attrs := []string{"movie", "crime", "drama"}
		switch i {
		case 10:
			attrs = []string{"movie", "action", "drama"}
		case 11:
			attrs = []string{"movie", "action", "crime"}
		}
		b.SetTextAttrs(graph.NodeID(i), attrs...)
		b.SetNumAttrs(graph.NodeID(i), num[0], num[1])
	}
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 8}, {1, 2}, {1, 4}, {1, 8},
		{2, 3}, {2, 9}, {3, 9}, {4, 5}, {4, 8}, {5, 6}, {5, 7}, {6, 7},
		{2, 4}, {3, 5}, {6, 9}, {7, 9}, {0, 9}, {1, 3},
		{10, 11}, {10, 6}, {11, 7}, {10, 7}, {11, 6},
	} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(g, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// legacyOpens lists the four ways a legacy file at path must still open.
// None of them may map it: it is served from the heap.
func legacyOpens(path string) []struct {
	name string
	open func() (*store.Snapshot, error)
} {
	mounted := func(m *store.Mounted, err error) (*store.Snapshot, error) {
		if err != nil {
			return nil, err
		}
		if m.Mapped() {
			return nil, errors.New("legacy file claims to be mapped")
		}
		return m.Snapshot(), nil
	}
	return []struct {
		name string
		open func() (*store.Snapshot, error)
	}{
		{"Decode", func() (*store.Snapshot, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return store.Decode(data)
		}},
		{"OpenFile", func() (*store.Snapshot, error) { return store.OpenFile(path) }},
		{"OpenMapped", func() (*store.Snapshot, error) { return mounted(store.OpenMapped(path)) }},
		{"MountGraphFile", func() (*store.Snapshot, error) { return mounted(store.MountGraphFile(path)) }},
	}
}

// TestLegacyV1Fixture proves every open path still reads a v1 file and that
// an engine built from it answers byte-identically to one built from the v2
// pack of the same graph.
func TestLegacyV1Fixture(t *testing.T) {
	data, err := os.ReadFile(legacyV1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.DetectFile(legacyV1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != store.Version || !info.Index || info.Aligned || info.Compressed || info.Bytes != int64(len(data)) {
		t.Fatalf("v1 fixture misdescribed: %+v", info)
	}

	v2, err := store.Decode(snapshotBytes(t, figure1Engine(t)))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Info.Version != store.Version2 {
		t.Fatalf("reference pack is v%d", v2.Info.Version)
	}
	ref, err := engine.NewFromSnapshot(v2, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := outcomes(t, ref, 0, 3)

	for _, path := range legacyOpens(legacyV1Fixture) {
		t.Run(path.name, func(t *testing.T) {
			snap, err := path.open()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Info.Version != store.Version || snap.Index == nil || snap.Index.NodeTruss == nil {
				t.Fatalf("v1 open lost its version or index: %+v", snap.Info)
			}
			eng, err := engine.NewFromSnapshot(snap, engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range outcomes(t, eng, 0, 3) {
				if !bytes.Equal(want[i], got) {
					t.Errorf("request %d: v1 %s\nv2 pack %s", i, got, want[i])
				}
			}
			mutatesLike(t, eng, ref)
		})
	}

	// The v1 decoder's own corruption checks, which used to run against
	// freshly written v1 bytes: every truncation and a flip in every region
	// must classify, never decode.
	for n := 0; n < len(data); n++ {
		if _, err := store.Decode(data[:n]); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
			t.Fatalf("truncate to %d: got %v, want ErrSnapshotCorrupt", n, err)
		}
	}
	for _, at := range []int{20, len(data) / 4, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x40
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
			t.Errorf("flip at %d: got %v, want ErrSnapshotCorrupt", at, err)
		}
	}
}

// TestLegacyCompressedFixtures proves every open path still reads a v2 file
// with compressed adjacency: each yields the reference's CSR and index,
// answers byte-identically, and repacks to exactly the bytes of packing the
// reference fresh.
func TestLegacyCompressedFixtures(t *testing.T) {
	_, facebook := buildEngine(t, "facebook", 0.3)
	for _, fx := range []struct {
		name string
		path string
		ref  *engine.Engine
		q    graph.NodeID
		k    int
	}{
		{"figure1", legacyFigure1Fixture, figure1Engine(t), 0, 3},
		{"facebook", legacyFacebookFixture, facebook, 10, 4},
	} {
		info, err := store.DetectFile(fx.path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Version != store.Version2 || !info.Compressed || !info.Aligned || !info.Index {
			t.Fatalf("%s misdescribed: %+v", fx.path, info)
		}
		wantRaw := fx.ref.Graph().(*graph.Graph).Export()
		want := outcomes(t, fx.ref, fx.q, fx.k)
		fresh := snapshotBytes(t, fx.ref)
		for _, path := range legacyOpens(fx.path) {
			t.Run(fx.name+"/"+path.name, func(t *testing.T) {
				snap, err := path.open()
				if err != nil {
					t.Fatal(err)
				}
				if !snap.Info.Compressed || snap.Index == nil || snap.Index.NodeTruss == nil {
					t.Fatalf("compressed open lost its layout or index: %+v", snap.Info)
				}
				if !reflect.DeepEqual(snap.Graph.Export(), wantRaw) {
					t.Fatal("decoded CSR differs from the reference graph")
				}
				// The file predates the edgetruss section; the engine
				// derives it at construction.
				wantIdx := fx.ref.ExportIndex()
				if snap.Index.EdgeTruss != nil {
					t.Fatal("legacy file decoded with an edgetruss section")
				}
				fileIdx := *wantIdx
				fileIdx.EdgeTruss = nil
				if !reflect.DeepEqual(*snap.Index, fileIdx) {
					t.Fatal("decoded index differs from the reference index")
				}
				eng, err := engine.NewFromSnapshot(snap, engine.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(eng.ExportIndex(), wantIdx) {
					t.Fatal("engine over the legacy file exports another index than the reference")
				}
				for i, got := range outcomes(t, eng, fx.q, fx.k) {
					if !bytes.Equal(want[i], got) {
						t.Errorf("request %d: legacy %s\nreference %s", i, got, want[i])
					}
				}
				if !bytes.Equal(snapshotBytes(t, eng), fresh) {
					t.Error("repacking the legacy file differs from packing the reference")
				}
				mutatesLike(t, eng, fx.ref)
			})
		}
	}

	// The facebook fixture exercises multi-byte varints: its neighbor
	// payload is larger than one byte per neighbor.
	data := readFile(t, legacyFacebookFixture)
	snap := mustDecode(t, data)
	for _, s := range parseV2SectionTable(t, data) {
		if s.name == "packblob" && s.size <= 2*int64(snap.Graph.NumEdges()) {
			t.Fatalf("packblob is %d bytes for %d neighbors: no multi-byte varint", s.size, 2*snap.Graph.NumEdges())
		}
	}
}

// legacyNodeTrussFixture is Figure 1's graph with its full index, as the
// aligned v2 layout written before the edgetruss section existed: the
// index carries coreness, node trussness and the normalizer table only.
const legacyNodeTrussFixture = "testdata/v2-figure1-nodetruss.snap"

// TestV2WithoutEdgeTrussFixture proves a v2 file written before the
// edgetruss section still opens through every path — mapped, since it is
// aligned — and that the engine over it derives the per-edge trussness at
// construction: it exports the reference's index, answers byte-identically,
// repacks to the bytes of packing the reference fresh, and mutates alike.
func TestV2WithoutEdgeTrussFixture(t *testing.T) {
	ref := figure1Engine(t)
	want := outcomes(t, ref, 0, 3)
	fresh := snapshotBytes(t, ref)
	data := readFile(t, legacyNodeTrussFixture)
	for _, s := range parseV2SectionTable(t, data) {
		if s.name == "edgetruss" {
			t.Fatal("fixture carries an edgetruss section")
		}
	}
	mounted := func(m *store.Mounted, err error) (*store.Snapshot, error) {
		if err != nil {
			return nil, err
		}
		t.Cleanup(func() { m.Close() })
		if m.Mapped() != mmapExpected() {
			return nil, errors.New("aligned file not served as the platform maps")
		}
		return m.Snapshot(), nil
	}
	for _, path := range []struct {
		name string
		open func() (*store.Snapshot, error)
	}{
		{"Decode", func() (*store.Snapshot, error) { return store.Decode(data) }},
		{"OpenFile", func() (*store.Snapshot, error) { return store.OpenFile(legacyNodeTrussFixture) }},
		{"OpenMapped", func() (*store.Snapshot, error) { return mounted(store.OpenMapped(legacyNodeTrussFixture)) }},
		{"MountGraphFile", func() (*store.Snapshot, error) { return mounted(store.MountGraphFile(legacyNodeTrussFixture)) }},
	} {
		t.Run(path.name, func(t *testing.T) {
			snap, err := path.open()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Index == nil || snap.Index.NodeTruss == nil || snap.Index.EdgeTruss != nil {
				t.Fatalf("fixture opened with index %+v", snap.Index)
			}
			eng, err := engine.NewFromSnapshot(snap, engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(eng.ExportIndex(), ref.ExportIndex()) {
				t.Fatal("engine over the fixture exports another index than the reference")
			}
			for i, got := range outcomes(t, eng, 0, 3) {
				if !bytes.Equal(want[i], got) {
					t.Errorf("request %d: fixture %s\nreference %s", i, got, want[i])
				}
			}
			if !bytes.Equal(snapshotBytes(t, eng), fresh) {
				t.Error("repacking the fixture differs from packing the reference")
			}
			mutatesLike(t, eng, ref)
		})
	}
}

// mutatesLike applies the same three batches — remove one of node 0's
// edges, add an edge from node 0, set node 1's text — to eng and to an
// engine reopened from ref's current snapshot, and requires the two to
// pack to the same bytes after each: an engine over a legacy file
// maintains its indexes exactly as one over a fresh pack does. ref itself
// is not mutated.
func mutatesLike(t *testing.T, eng, ref *engine.Engine) {
	t.Helper()
	twin, err := engine.NewFromSnapshot(mustDecode(t, snapshotBytes(t, ref)), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CopyStore(eng.Graph())
	nbrs := g.Neighbors(0)
	far := graph.NodeID(1)
	for far == 0 || g.HasEdge(0, far) {
		far++
	}
	for i, batch := range [][]mutate.Delta{
		{mutate.RemoveEdge(0, nbrs[len(nbrs)-1])},
		{mutate.AddEdge(0, far)},
		{mutate.SetAttr(1, []string{"drama"}, nil)},
	} {
		for _, e := range []*engine.Engine{eng, twin} {
			if _, err := e.Apply(batch); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		if !bytes.Equal(snapshotBytes(t, eng), snapshotBytes(t, twin)) {
			t.Fatalf("batch %d: packs differ from the reference's after the same mutation", i)
		}
	}
}

// TestLegacyCompressedRunsChecked re-signs the compressed fixture after
// damaging one byte of its packoff or packblob section, so the checksum
// passes and the adjacency decoder itself must reject every such file.
func TestLegacyCompressedRunsChecked(t *testing.T) {
	good := readFile(t, legacyFigure1Fixture)
	for _, s := range parseV2SectionTable(t, good) {
		if s.name != "packoff" && s.name != "packblob" {
			continue
		}
		for at := s.off; at < s.off+s.size; at++ {
			for _, mask := range []byte{0x01, 0x80} {
				bad := append([]byte(nil), good...)
				bad[at] ^= mask
				resign(bad)
				if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
					t.Fatalf("%s byte %d ^ %#x: got %v, want ErrSnapshotCorrupt", s.name, at-s.off, mask, err)
				}
			}
		}
	}
}

func mustDecode(t testing.TB, data []byte) *store.Snapshot {
	t.Helper()
	snap, err := store.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
