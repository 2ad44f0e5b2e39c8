package catalog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/store"
)

// liveFixture packs a small graph into a snapshot and returns its path plus
// a journal path in the same temp dir.
func liveFixture(t *testing.T) (snapPath, journalPath string) {
	t.Helper()
	dir := t.TempDir()
	b := graph.NewBuilder(12, 1)
	for v := 0; v < 12; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tag%d", v%3))
		b.SetNumAttrs(graph.NodeID(v), float64(v)/12)
	}
	// Two squares plus a path between them.
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
		{6, 7}, {7, 8}, {8, 9}, {9, 6}, {6, 8},
		{3, 5}, {5, 6},
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	eng, err := engine.New(g, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(dir, "g.snap")
	if _, err := eng.WriteSnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	return snapPath, filepath.Join(dir, "g.journal")
}

func TestMutateJournalReplay(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	ctx := context.Background()
	req := query.Request{Query: 0, Method: query.MethodStructural, K: 3}.WithDefaults()

	c := New()
	d, replayed, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d batches from a fresh journal", replayed)
	}
	// Make node 4 part of a 3-core with the first square.
	res, err := c.Mutate("g", []mutate.Delta{
		mutate.AddEdge(4, 0), mutate.AddEdge(4, 1), mutate.AddEdge(4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Journaled != 1 || res.Version != 1 {
		t.Fatalf("mutate result %+v", res)
	}
	liveOut, err := d.Engine().Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A rebooted catalog replays the journal and answers identically.
	c2 := New()
	d2, replayed, err := c2.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if replayed != 1 {
		t.Fatalf("replayed %d batches, want 1", replayed)
	}
	rebootOut, err := d2.Engine().Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveOut.Community, rebootOut.Community) || liveOut.Delta != rebootOut.Delta {
		t.Fatalf("replayed state diverges:\nlive   %v δ=%v\nreboot %v δ=%v",
			liveOut.Community, liveOut.Delta, rebootOut.Community, rebootOut.Delta)
	}
	if d2.Engine().Version() != 1 {
		t.Fatalf("reboot version = %d", d2.Engine().Version())
	}
}

func TestCompactFoldsJournal(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	ctx := context.Background()
	req := query.Request{Query: 6, Method: query.MethodStructural, K: 3}.WithDefaults()

	c := New()
	d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(10, 6), mutate.AddEdge(10, 7)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(10, 8), mutate.SetAttr(10, []string{"hub"}, nil)}); err != nil {
		t.Fatal(err)
	}
	liveOut, err := d.Engine().Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	cres, err := c.Compact("g")
	if err != nil {
		t.Fatal(err)
	}
	if cres.BatchesFolded != 2 || cres.Path != snapPath || cres.Version != 2 {
		t.Fatalf("compact result %+v", cres)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Rebooting from the compacted snapshot: nothing to replay, identical
	// answers (byte-identical outcome for the same request).
	c2 := New()
	d2, replayed, err := c2.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if replayed != 0 {
		t.Fatalf("journal not truncated: %d batches replayed", replayed)
	}
	compactOut, err := d2.Engine().Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(liveOut.Community, compactOut.Community) || liveOut.Delta != compactOut.Delta {
		t.Fatalf("compacted state diverges:\nlive    %v δ=%v\ncompact %v δ=%v",
			liveOut.Community, liveOut.Delta, compactOut.Community, compactOut.Delta)
	}
	// The folded snapshot carries the mutated attributes.
	g := d2.Engine().Graph()
	name := g.Dict().Name(g.TextAttrs(10)[0])
	if name != "hub" {
		t.Fatalf("node 10 attr %q after compaction", name)
	}
	// Compacting an unjournaled dataset errors.
	cat := New()
	if _, err := cat.MountPath("plain", snapPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Compact("plain"); err == nil {
		t.Fatal("compact on unjournaled dataset accepted")
	}
}

func TestAutoCompaction(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.SetCompactEvery(2)
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 0)}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Compacting {
		t.Fatalf("second batch should trigger compaction: %+v", res)
	}
	if err := c.Close(); err != nil { // waits for the background compactor
		t.Fatal(err)
	}
	j, replayed, err := store.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(replayed) != 0 {
		t.Fatalf("journal holds %d batches after auto-compaction", len(replayed))
	}
}

// TestConcurrentQueryMutateCompact runs queries, journaled mutation batches
// and explicit compactions concurrently; under -race this proves the whole
// live-serving path — atomic engine state, scoped sweeps, journal appends,
// snapshot rewrites — is data-race free.
func TestConcurrentQueryMutateCompact(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := New()
	d, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d.SetCompactEvery(0) // explicit compaction only, so the test controls it

	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng := d.Engine()
				q := graph.NodeID((i*7 + w) % eng.Graph().NumNodes())
				req := query.Request{Query: q, Method: query.MethodStructural, K: 1 + i%3}.WithDefaults()
				if _, err := eng.Query(ctx, req); err != nil && !errors.Is(err, cserr.ErrNoCommunity) {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := c.Compact("g"); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	next := graph.NodeID(12)
	for i := 0; i < 20; i++ {
		deltas := []mutate.Delta{
			mutate.AddNode([]string{"n"}, []float64{0.5}),
			mutate.AddEdge(next, graph.NodeID(i%12)),
		}
		next++
		if _, err := c.Mutate("g", deltas); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if v := d.Engine().Version(); v != 20 {
		t.Fatalf("version = %d, want 20", v)
	}
}

// TestTextSourceCompactionSurvivesReboot mounts a journaled *text* source,
// compacts (which writes the sidecar path+".snap"), and proves a reboot
// with the same flags serves the compacted state instead of silently
// re-reading the stale text file.
func TestTextSourceCompactionSurvivesReboot(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	// Convert the fixture snapshot into a text-format source.
	snap, err := store.OpenFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(filepath.Dir(snapPath), "g.txt")
	if _, err := store.AtomicWriteFile(textPath, func(w io.Writer) error {
		return dataset.WriteGraph(w, snap.Graph)
	}); err != nil {
		t.Fatal(err)
	}

	c := New()
	d, _, err := c.MountPathJournaled("g", textPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 0), mutate.AddEdge(4, 1)}); err != nil {
		t.Fatal(err)
	}
	cres, err := c.Compact("g")
	if err != nil {
		t.Fatal(err)
	}
	if cres.Path != textPath+".snap" {
		t.Fatalf("compacted to %q, want the sidecar next to the text source", cres.Path)
	}
	wantEdges := d.Engine().Graph().NumEdges()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := New()
	d2, replayed, err := c2.MountPathJournaled("g", textPath, journalPath, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if replayed != 0 {
		t.Fatalf("replayed %d batches after compaction", replayed)
	}
	if got := d2.Engine().Graph().NumEdges(); got != wantEdges {
		t.Fatalf("reboot lost compacted mutations: %d edges, want %d", got, wantEdges)
	}
}
