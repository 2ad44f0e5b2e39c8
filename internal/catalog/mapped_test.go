package catalog

// Mapped-serving catalog tests: a snapshot mounts zero-copy, the journal
// replays its deltas as a heap overlay over the read-only mapped base, the
// served answers are byte-identical to a heap-resident mount of the same
// state, and compaction writes back the layout it mounted. Under -race
// these pin the mapped pages as read-only in practice, not just by contract.

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/store"
)

// mappedFixture repacks the liveFixture graph in the layout opt selects.
func mappedFixture(t *testing.T, opt store.PackOptions) (snapPath, journalPath string) {
	t.Helper()
	basePath, _ := liveFixture(t)
	snap, err := store.OpenFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewFromSnapshot(snap, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath = filepath.Join(dir, "g2.snap")
	if _, err := eng.WriteSnapshotFile(snapPath, opt); err != nil {
		t.Fatal(err)
	}
	return snapPath, filepath.Join(dir, "g2.journal")
}

// mmapExpected mirrors the store package's unix build constraint: on these
// platforms a v2 mount that is not zero-copy is a regression.
func mmapExpected() bool {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		return false
	}
	return true
}

func TestMappedMountJournalReplay(t *testing.T) {
	for _, layout := range []struct {
		name string
		opt  store.PackOptions
	}{
		{"aligned", store.PackOptions{}},
		{"compressed", store.PackOptions{Compress: true}},
	} {
		t.Run(layout.name, func(t *testing.T) {
			snapPath, journalPath := mappedFixture(t, layout.opt)
			ctx := context.Background()
			req := query.Request{Query: 0, Method: query.MethodStructural, K: 3}.WithDefaults()
			deltas := []mutate.Delta{
				mutate.AddEdge(4, 0), mutate.AddEdge(4, 1), mutate.AddEdge(4, 2),
			}

			// Heap-resident reference: the same snapshot with mmap disabled.
			ref := New()
			ref.SetMmap(false)
			refDS, _, err := ref.MountPathJournaled("g", snapPath, filepath.Join(t.TempDir(), "ref.journal"), engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for _, info := range ref.Infos() {
				if info.Mapped {
					t.Fatalf("mmap-disabled catalog reports mapped: %+v", info)
				}
			}
			if _, err := ref.Mutate("g", deltas); err != nil {
				t.Fatal(err)
			}
			want, err := refDS.Engine().Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			// Mapped mount: journal replay builds overlays over the read-only
			// mapped base; answers must match the heap reference exactly.
			c := New()
			d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range c.Infos() {
				if info.Mapped != mmapExpected() {
					t.Fatalf("mapped = %v, platform expects %v (%+v)", info.Mapped, mmapExpected(), info)
				}
				if info.Mapped && info.MappedBytes == 0 {
					t.Fatalf("mapped dataset reports 0 resident bytes: %+v", info)
				}
			}
			if _, err := c.Mutate("g", deltas); err != nil {
				t.Fatal(err)
			}
			got, err := d.Engine().Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Community, got.Community) || want.Delta != got.Delta {
				t.Fatalf("mapped mount diverges from heap:\nheap   %v δ=%v\nmapped %v δ=%v",
					want.Community, want.Delta, got.Community, got.Delta)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			// Reboot: the journaled batch replays onto a fresh mapping.
			c2 := New()
			d2, replayed, err := c2.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if replayed != 1 {
				t.Fatalf("replayed %d batches, want 1", replayed)
			}
			reboot, err := d2.Engine().Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Community, reboot.Community) || want.Delta != reboot.Delta {
				t.Fatalf("replay over mapped base diverges:\nheap   %v δ=%v\nreboot %v δ=%v",
					want.Community, want.Delta, reboot.Community, reboot.Delta)
			}

			// Compaction keeps the layout the dataset was mounted with: the
			// folded snapshot is still aligned v2 (and still compressed), so
			// the next boot is still zero-copy and answers the same.
			if _, err := c2.Compact("g"); err != nil {
				t.Fatal(err)
			}
			info, err := store.DetectFile(snapPath)
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != store.Version2 || !info.Aligned || info.Compressed != layout.opt.Compress {
				t.Fatalf("compaction changed the layout: %+v", info)
			}
			c3 := New()
			d3, replayed, err := c3.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer c3.Close()
			if replayed != 0 {
				t.Fatalf("replayed %d batches after compaction, want 0", replayed)
			}
			if got := c3.Infos()[0].Mapped; got != mmapExpected() {
				t.Fatalf("compacted dataset remounts mapped = %v, platform expects %v", got, mmapExpected())
			}
			compacted, err := d3.Engine().Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Community, compacted.Community) || want.Delta != compacted.Delta {
				t.Fatalf("compacted remount diverges:\nheap      %v δ=%v\ncompacted %v δ=%v",
					want.Community, want.Delta, compacted.Community, compacted.Delta)
			}
		})
	}
}

// TestMappedSwapRetiresMapping hot-swaps a mapped dataset and proves the
// displaced mapping stays valid for in-flight readers until Catalog.Close.
func TestMappedSwapRetiresMapping(t *testing.T) {
	snapPath, _ := mappedFixture(t, store.PackOptions{})
	c := New()
	d, err := c.MountPath("g", snapPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hold the pre-swap engine the way an in-flight query would.
	oldEng := d.Engine()

	if _, err := c.SwapPath("g", snapPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// The displaced engine still answers: its mapping is retired, not closed.
	req := query.Request{Query: 0, Method: query.MethodStructural, K: 2}.WithDefaults()
	if _, err := oldEng.Query(context.Background(), req); err != nil {
		t.Fatalf("displaced mapped engine: %v", err)
	}
	if _, err := d.Engine().Query(context.Background(), req); err != nil {
		t.Fatalf("swapped-in engine: %v", err)
	}
	if err := c.Unmount("g"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
