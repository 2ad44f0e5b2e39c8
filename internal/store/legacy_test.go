package store_test

// The version-1 stream is read-only legacy: nothing in this build writes it,
// so the golden file below — Figure 1's movie graph with its full index,
// packed by the last build that had the v1 encoder — is what keeps every
// open path honest about still reading it.

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
)

const legacyV1Fixture = "testdata/v1-figure1.snap"

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

	mounted := func(m *store.Mounted, err error) (*store.Snapshot, error) {
		if err != nil {
			return nil, err
		}
		if m.Mapped() {
			return nil, errors.New("v1 file claims to be mapped")
		}
		return m.Snapshot(), nil
	}
	for _, path := range []struct {
		name string
		open func() (*store.Snapshot, error)
	}{
		{"Decode", func() (*store.Snapshot, error) { return store.Decode(data) }},
		{"OpenFile", func() (*store.Snapshot, error) { return store.OpenFile(legacyV1Fixture) }},
		{"OpenMapped", func() (*store.Snapshot, error) { return mounted(store.OpenMapped(legacyV1Fixture)) }},
		{"MountGraphFile", func() (*store.Snapshot, error) { return mounted(store.MountGraphFile(legacyV1Fixture)) }},
	} {
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
