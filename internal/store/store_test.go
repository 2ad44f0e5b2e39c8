package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
	"repro/internal/store"

	"os"
)

// buildEngine generates a dataset analog and an engine with the full index
// built, the state a pack step would snapshot.
func buildEngine(t testing.TB, name string, scale float64) (*dataset.Generated, *engine.Engine) {
	t.Helper()
	d, err := dataset.Homogeneous(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(d.Graph, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

// snapshotBytes serializes the engine state in the default (uncompressed)
// layout.
func snapshotBytes(t testing.TB, eng *engine.Engine) []byte {
	t.Helper()
	return v2Bytes(t, eng, store.PackOptions{})
}

// TestRoundTripOutcomes is the acceptance criterion: a graph + index written
// by store.WriteSnapshot and reopened by store.Open answer the same queries with
// byte-identical Outcomes, across methods and structural models.
func TestRoundTripOutcomes(t *testing.T) {
	d, eng := buildEngine(t, "facebook", 0.3)
	snap, err := store.Open(bytes.NewReader(snapshotBytes(t, eng)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index == nil {
		t.Fatal("snapshot lost its index section")
	}
	cfg := engine.DefaultConfig()
	reopened, err := engine.NewFromSnapshot(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Graph.NumNodes(), d.Graph.NumNodes(); got != want {
		t.Fatalf("nodes: got %d, want %d", got, want)
	}
	if got, want := snap.Graph.NumEdges(), d.Graph.NumEdges(); got != want {
		t.Fatalf("edges: got %d, want %d", got, want)
	}

	q := d.QueryNodes(1, 4, 7)[0]
	reqs := []query.Request{
		{Query: q, Method: query.MethodSEA, K: 4, Seed: 1},
		{Query: q, Method: query.MethodSEA, K: 4, Seed: 1, Model: sea.KTruss},
		{Query: q, Method: query.MethodExact, K: 4, MaxStates: 20000},
		{Query: q, Method: query.MethodStructural, K: 4},
		{Query: q, Method: query.MethodACQ, K: 4},
	}
	for _, req := range reqs {
		want, wantErr := eng.Query(context.Background(), req)
		got, gotErr := reopened.Query(context.Background(), req)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: fresh %v, reopened %v", req.Method, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		wb, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb, gb) {
			t.Errorf("%s: outcome differs after round trip:\nfresh:    %s\nreopened: %s", req.Method, wb, gb)
		}
	}
}

// TestRoundTripIndex checks the index arrays themselves survive unchanged,
// so the reopened engine's admission decisions are provably the same.
func TestRoundTripIndex(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.25)
	idx := eng.ExportIndex()
	snap, err := store.Open(bytes.NewReader(snapshotBytes(t, eng)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx.Coreness {
		if idx.Coreness[i] != snap.Index.Coreness[i] {
			t.Fatalf("coreness[%d]: got %d, want %d", i, snap.Index.Coreness[i], idx.Coreness[i])
		}
	}
	for i := range idx.NodeTruss {
		if idx.NodeTruss[i] != snap.Index.NodeTruss[i] {
			t.Fatalf("truss[%d]: got %d, want %d", i, snap.Index.NodeTruss[i], idx.NodeTruss[i])
		}
	}
	for i := range idx.NormMin {
		if idx.NormMin[i] != snap.Index.NormMin[i] || idx.NormMax[i] != snap.Index.NormMax[i] {
			t.Fatalf("bounds[%d] changed", i)
		}
	}
}

// TestGraphOnlySnapshot: WriteSnapshot with a nil index yields a snapshot that still
// opens and serves (the engine rebuilds what is missing).
func TestGraphOnlySnapshot(t *testing.T) {
	d, _ := buildEngine(t, "facebook", 0.2)
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, d.Graph, nil, store.PackOptions{}); err != nil {
		t.Fatal(err)
	}
	snap, err := store.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Index != nil {
		t.Fatal("graph-only snapshot grew an index")
	}
	if _, err := engine.NewFromSnapshot(snap, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	if !bytes.Equal(snapshotBytes(t, eng), snapshotBytes(t, eng)) {
		t.Fatal("two writes of the same state differ")
	}
}

func TestCorruptionDetection(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	good := snapshotBytes(t, eng)

	t.Run("bit flip", func(t *testing.T) {
		// Flip one byte in every region of the file; each must be caught.
		for _, at := range []int{20, len(good) / 4, len(good) / 2, len(good) - 5} {
			bad := append([]byte(nil), good...)
			bad[at] ^= 0x40
			if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
				t.Errorf("flip at %d: got %v, want ErrSnapshotCorrupt", at, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 10, len(good) / 2, len(good) - 1} {
			if _, err := store.Decode(good[:n]); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
				t.Errorf("truncate to %d: got %v, want ErrSnapshotCorrupt", n, err)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), good...), 1, 2, 3, 4)
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotCorrupt) {
			t.Errorf("got %v, want ErrSnapshotCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotVersion) {
			t.Errorf("got %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = 99
		if _, err := store.Decode(bad); !errors.Is(err, cserr.ErrSnapshotVersion) {
			t.Errorf("got %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("text file", func(t *testing.T) {
		if _, err := store.Decode([]byte("n 10 2\nv 0 a,b 0.5,0.5\n")); !errors.Is(err, cserr.ErrSnapshotVersion) {
			t.Errorf("got %v, want ErrSnapshotVersion", err)
		}
	})
}

func TestDetectFile(t *testing.T) {
	_, eng := buildEngine(t, "facebook", 0.2)
	snapPath := t.TempDir() + "/g.snap"
	textPath := t.TempDir() + "/g.txt"
	writeFile(t, snapPath, snapshotBytes(t, eng))
	writeFile(t, textPath, []byte("n 1 0\nv 0 - -\n"))

	if info, err := store.DetectFile(snapPath); err != nil || !info.IsSnapshot() {
		t.Fatalf("snapshot not detected: %+v %v", info, err)
	} else if info.Version != store.Version2 || !info.Index || !info.Aligned || info.Compressed {
		t.Fatalf("snapshot misdescribed: %+v", info)
	}
	if info, err := store.DetectFile(textPath); err != nil || info.IsSnapshot() {
		t.Fatalf("text file misdetected: %+v %v", info, err)
	}
	if _, err := store.OpenFile(snapPath); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRejectsShapeMismatch(t *testing.T) {
	d, eng := buildEngine(t, "facebook", 0.2)
	idx := eng.ExportIndex()
	idx.Coreness = idx.Coreness[:len(idx.Coreness)-1]
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, d.Graph, idx, store.PackOptions{}); err == nil {
		t.Fatal("mismatched index accepted")
	}
}

// TestFromRawRejectsAsymmetry exercises the structural validation behind
// corruption detection at the graph layer: arcs 0→1 and 2→1 with no
// reverses must be rejected.
func TestFromRawRejectsAsymmetry(t *testing.T) {
	raw := graph.Raw{
		Offsets: []int32{0, 1, 1, 2},
		Adj:     []graph.NodeID{1, 1},
		TextOff: []int32{0, 0, 0, 0},
	}
	if _, err := graph.FromRaw(raw); err == nil {
		t.Fatal("asymmetric adjacency accepted")
	}
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBoot compares the two ways to reach a ready-to-serve engine on a
// profile-scale graph: reopening a packed snapshot vs. parsing the text
// exchange format and rebuilding every index. The acceptance bar for the
// snapshot path is ≥10× faster.
func BenchmarkBoot(b *testing.B) {
	d, eng := buildEngine(b, "twitch", 1.0)
	snap := snapshotBytes(b, eng)
	var text bytes.Buffer
	if err := dataset.WriteGraph(&text, d.Graph); err != nil {
		b.Fatal(err)
	}
	cfg := engine.DefaultConfig()

	b.Run("snapshot-open", func(b *testing.B) {
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			s, err := store.Open(bytes.NewReader(snap))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.NewFromSnapshot(s, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("text-parse-and-index", func(b *testing.B) {
		b.SetBytes(int64(text.Len()))
		for i := 0; i < b.N; i++ {
			g, err := dataset.LoadGraph(bytes.NewReader(text.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.New(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapped-open", func(b *testing.B) {
		path := writeTemp(b, "g.snap", snap)
		b.SetBytes(int64(len(snap)))
		for i := 0; i < b.N; i++ {
			m, err := store.OpenMapped(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := engine.NewFromSnapshot(m.Snapshot(), cfg); err != nil {
				b.Fatal(err)
			}
			m.Close()
		}
	})
}

// BenchmarkBootScaling pins the zero-copy acceptance criterion: across a 4×
// graph-size increase the mapped open stays O(1) (wall-clock ratio ≈ 1)
// while the heap open grows linearly with the file. The engine rows measure
// the same contrast including engine construction on top of the open.
func BenchmarkBootScaling(b *testing.B) {
	for _, scale := range []float64{0.5, 2.0} {
		_, eng := buildEngine(b, "twitch", scale)
		path := writeTemp(b, "g.snap", snapshotBytes(b, eng))
		cfg := engine.DefaultConfig()

		b.Run(fmt.Sprintf("open-heap/scale=%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.OpenFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("open-mapped/scale=%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := store.OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
		b.Run(fmt.Sprintf("engine-heap/scale=%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := store.OpenFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.NewFromSnapshot(s, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("engine-mapped/scale=%g", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := store.OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := engine.NewFromSnapshot(m.Snapshot(), cfg); err != nil {
					b.Fatal(err)
				}
				m.Close()
			}
		})
	}
}
