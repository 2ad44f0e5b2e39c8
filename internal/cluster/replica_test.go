package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/mutate"
	"repro/internal/query"
)

// testSnapshot packs the shared 12-node fixture graph (two squares joined
// by a path, mixed text/numeric attributes) into a snapshot file.
func testSnapshot(t *testing.T, dir string) string {
	t.Helper()
	b := graph.NewBuilder(12, 1)
	for v := 0; v < 12; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tag%d", v%3))
		b.SetNumAttrs(graph.NodeID(v), float64(v)/12)
	}
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
		{6, 7}, {7, 8}, {8, 9}, {9, 6}, {6, 8},
		{3, 5}, {5, 6},
	} {
		b.AddEdge(e[0], e[1])
	}
	eng, err := engine.New(b.MustBuild(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.snap")
	if _, err := eng.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// newPrimary boots a journaled primary node serving dataset "g".
func newPrimary(t *testing.T) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	snap := testSnapshot(t, dir)
	if _, _, err := cat.MountPathJournaled("g", snap, filepath.Join(dir, "g.journal"), engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeHandler(cat, engine.DefaultConfig(), nil))
	t.Cleanup(ts.Close)
	return cat, ts
}

// newFollowerNode boots a bootstrapped follower of primaryURL.
func newFollowerNode(t *testing.T, primaryURL string) (*catalog.Catalog, *Follower, *httptest.Server) {
	t.Helper()
	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	fol := NewFollower(cat, primaryURL, t.TempDir(), engine.DefaultConfig(), 0)
	if err := fol.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeHandler(cat, engine.DefaultConfig(), fol))
	t.Cleanup(ts.Close)
	return cat, fol, ts
}

// outcomesMatch runs req on both engines and requires byte-identical
// marshalled Outcomes.
func outcomesMatch(t *testing.T, primary, follower *catalog.Catalog, req query.Request) {
	t.Helper()
	outcomesMatchOn(t, primary, follower, "g", req)
}

// outcomesMatch on the dataset called name.
func outcomesMatchOn(t *testing.T, primary, follower *catalog.Catalog, name string, req query.Request) {
	t.Helper()
	pe, err := primary.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := follower.Resolve(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pout, perr := pe.Query(ctx, req)
	fout, ferr := fe.Query(ctx, req)
	if (perr == nil) != (ferr == nil) {
		t.Fatalf("error mismatch: primary=%v follower=%v", perr, ferr)
	}
	pj, err := json.Marshal(pout)
	if err != nil {
		t.Fatal(err)
	}
	fj, err := json.Marshal(fout)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, fj) {
		t.Fatalf("outcomes differ for %+v:\nprimary:  %s\nfollower: %s", req, pj, fj)
	}
}

func testRequests() []query.Request {
	structural := query.Request{Query: 0, Method: query.MethodStructural, K: 3}.WithDefaults()
	seeded := query.Request{Query: 6, Method: query.MethodSEA, K: 3, Seed: 42}.WithDefaults()
	return []query.Request{structural, seeded}
}

// TestFollowerReplicatesByteIdentical is the tentpole E2E: a follower that
// bootstrapped and tailed the journal answers every Request with an
// Outcome byte-identical to the primary's.
func TestFollowerReplicatesByteIdentical(t *testing.T) {
	pcat, pts := newPrimary(t)
	fcat, fol, _ := newFollowerNode(t, pts.URL)
	ctx := context.Background()

	// The bootstrap snapshot is the mappable layout: replicas boot zero-copy.
	if info := fcat.Infos()[0]; !info.Mapped && runtime.GOOS == "linux" {
		t.Fatalf("follower booted heap-resident: %+v", info)
	}

	// Identical before any mutation…
	for _, req := range testRequests() {
		outcomesMatch(t, pcat, fcat, req)
	}

	// …and identical again after a stream of mutation batches replicates.
	for i := 0; i < 3; i++ {
		if _, err := pcat.Mutate("g", []mutate.Delta{
			mutate.AddEdge(graph.NodeID(i), graph.NodeID(10+i%2)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fol.syncOnce(ctx)
	st := fol.Status()
	if len(st) != 1 || st[0].Version != 3 || st[0].Lag != 0 || st[0].LastError != "" {
		t.Fatalf("follower status after sync: %+v", st)
	}
	for _, req := range testRequests() {
		outcomesMatch(t, pcat, fcat, req)
	}
}

// TestFollowerResyncAfterCompaction wedges the follower's cursor behind a
// compaction and checks it re-bootstraps transparently.
func TestFollowerResyncAfterCompaction(t *testing.T) {
	pcat, pts := newPrimary(t)
	fcat, fol, _ := newFollowerNode(t, pts.URL)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(graph.NodeID(i), 11)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pcat.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(4, 7)}); err != nil {
		t.Fatal(err)
	}
	// The follower sits at cursor 0; the journal now starts at base 2. The
	// sync must detect 410, fetch a fresh snapshot, and land at cursor 3.
	fol.syncOnce(ctx)
	st := fol.Status()
	if len(st) != 1 || st[0].Version != 3 || st[0].Lag != 0 {
		t.Fatalf("follower status after resync: %+v", st)
	}
	for _, req := range testRequests() {
		outcomesMatch(t, pcat, fcat, req)
	}
}

// TestFollowerResyncAfterSwap checks lineage fencing: a hot-swap on the
// primary forces followers onto the new lineage via a fresh bootstrap.
func TestFollowerResyncAfterSwap(t *testing.T) {
	pcat, pts := newPrimary(t)
	fcat, fol, _ := newFollowerNode(t, pts.URL)
	ctx := context.Background()

	if _, err := pcat.SwapPath("g", testSnapshot(t, t.TempDir()), engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(1, 9)}); err != nil {
		t.Fatal(err)
	}
	fol.syncOnce(ctx)
	st := fol.Status()
	if len(st) != 1 || st[0].Lineage != 1 || st[0].Lag != 0 {
		t.Fatalf("follower status after swap: %+v", st)
	}
	for _, req := range testRequests() {
		outcomesMatch(t, pcat, fcat, req)
	}
}

// TestFollowerReplicaFilesPerDataset: dataset names that differ only in
// bytes a file name cannot hold keep their own replica snapshot and journal,
// so neither bootstrap unlinks the other's live journal and both replicas
// answer like the primary after a mutation each.
func TestFollowerReplicaFilesPerDataset(t *testing.T) {
	pcat := catalog.New()
	t.Cleanup(func() { pcat.Close() })
	names := []string{"a b", "a_b"}
	for _, name := range names {
		snap := testSnapshot(t, t.TempDir())
		if _, _, err := pcat.MountPathJournaled(name, snap, filepath.Join(t.TempDir(), "g.journal"), engine.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	pts := httptest.NewServer(NewNodeHandler(pcat, engine.DefaultConfig(), nil))
	t.Cleanup(pts.Close)

	fcat := catalog.New()
	t.Cleanup(func() { fcat.Close() })
	replicaDir := t.TempDir()
	fol := NewFollower(fcat, pts.URL, replicaDir, engine.DefaultConfig(), 0)
	if err := fol.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if _, err := pcat.Mutate(name, []mutate.Delta{mutate.AddEdge(graph.NodeID(i), 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if !fol.syncOnce(context.Background()) {
		t.Fatalf("sync failed: %+v", fol.Status())
	}
	for _, st := range fol.Status() {
		if st.Version != 1 || st.Lag != 0 || st.LastError != "" {
			t.Fatalf("follower status after sync: %+v", fol.Status())
		}
	}
	for _, name := range names {
		for _, req := range testRequests() {
			outcomesMatchOn(t, pcat, fcat, name, req)
		}
	}
	entries, err := os.ReadDir(replicaDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		var files []string
		for _, e := range entries {
			files = append(files, e.Name())
		}
		t.Fatalf("replica dir holds %q, want a snapshot and a journal per dataset", files)
	}
}

// TestPromoteLiftsWriteFence drives the follower's node surface: writes are
// fenced while following, promotion flips the role, lifts the fence, and
// leaves the node serving journal tails to its own followers.
func TestPromoteLiftsWriteFence(t *testing.T) {
	pcat, pts := newPrimary(t)
	_, fol, fts := newFollowerNode(t, pts.URL)
	ctx := context.Background()
	if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(0, 10)}); err != nil {
		t.Fatal(err)
	}
	fol.syncOnce(ctx)

	mutateBody := `{"graph":"g","deltas":[{"op":"add_edge","u":2,"v":9}]}`
	resp, err := http.Post(fts.URL+"/admin/mutate", "application/json", strings.NewReader(mutateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("fenced mutate: %d, want 403", resp.StatusCode)
	}

	c := NewClient(fts.URL, nil)
	if st, err := c.Status(ctx); err != nil || st.Role != RoleFollower {
		t.Fatalf("pre-promote status: %+v, err=%v", st, err)
	}
	if err := c.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	if st, err := c.Status(ctx); err != nil || st.Role != RolePrimary {
		t.Fatalf("post-promote status: %+v, err=%v", st, err)
	}

	resp, err = http.Post(fts.URL+"/admin/mutate", "application/json", strings.NewReader(mutateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted mutate: %d, want 200", resp.StatusCode)
	}

	// The promoted node is itself a replication source: its journal serves
	// tails from its current lineage (local version 2: one replicated, one
	// written batch).
	if tail, err := c.JournalSince(ctx, "g", 0, 1); err != nil || len(tail.Batches) != 1 {
		t.Fatalf("promoted journal tail: %+v, err=%v", tail, err)
	}

	// Promotion is terminal for the follower loop: Follow now conflicts.
	if err := c.Follow(ctx, pts.URL); err == nil {
		t.Fatal("promoted node accepted /admin/follow")
	}
}

// TestRequestIDEcho checks the correlation header end to end on a node:
// echoed when present on success and error paths alike.
func TestRequestIDEcho(t *testing.T) {
	_, pts := newPrimary(t)
	for _, path := range []string{"/healthz", "/nope-does-not-exist"} {
		req, err := http.NewRequest(http.MethodGet, pts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(httpapi.RequestIDHeader, "req-abc-123")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(httpapi.RequestIDHeader); got != "req-abc-123" {
			t.Fatalf("%s: request id %q, want echo", path, got)
		}
	}
}

// TestReplicationPollsTakeNoLatencySnapshot: everything a follower tick and
// a router probe touch — /admin/replication on both roles, a journal
// catch-up, a 410-triggered snapshot re-bootstrap, Follower.Status — reads
// names, versions and journal positions only. None of it may snapshot the
// engines' stage histograms (Engine.Latency, what /stats and /metrics pay).
func TestReplicationPollsTakeNoLatencySnapshot(t *testing.T) {
	pcat, pts := newPrimary(t)
	fcat, fol, fts := newFollowerNode(t, pts.URL)
	ctx := context.Background()
	// snaps maps each engine under watch to the snapshots it had taken when
	// the watch began (the bootstrap's /graphs listing costs the primary one).
	snaps := map[*engine.Engine]uint64{}
	watch := func(cat *catalog.Catalog) *engine.Engine {
		e, err := cat.Resolve("g")
		if err != nil {
			t.Fatal(err)
		}
		snaps[e] = e.LatencySnapshots()
		return e
	}
	watch(pcat)
	watch(fcat)
	mutatePrimary := func(u, v graph.NodeID) {
		if _, err := pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(u, v)}); err != nil {
			t.Fatal(err)
		}
	}
	probe := func(url string) {
		if _, err := NewClient(url, nil).Status(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// A tick that tails the journal.
	mutatePrimary(0, 10)
	if !fol.syncOnce(ctx) {
		t.Fatalf("catch-up tick failed: %+v", fol.Status())
	}
	// A tick whose cursor was compacted away: 410, then a fresh snapshot.
	mutatePrimary(1, 10)
	if _, err := pcat.Compact("g"); err != nil {
		t.Fatal(err)
	}
	if !fol.syncOnce(ctx) {
		t.Fatalf("re-bootstrap tick failed: %+v", fol.Status())
	}
	snaps[watch(fcat)] = 0 // the re-bootstrap swapped in a fresh follower engine
	if st := fol.Status(); len(st) != 1 || st[0].Version != 2 || st[0].Lag != 0 {
		t.Fatalf("follower did not converge: %+v", st)
	}
	probe(pts.URL)
	probe(fts.URL)

	for e, before := range snaps {
		if got := e.LatencySnapshots(); got != before {
			t.Errorf("engine %q took %d latency snapshots during replication polls", e.Name(), got-before)
		}
	}
}
