package engine

// ApplyGroups tests: the staged group-commit fold — per-group isolation,
// one published generation per batch, and equivalence with the same groups
// applied sequentially.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/store"
)

// snapshotBytes serializes the engine's serving state; the version is not
// part of the snapshot, so states reached by different numbers of commits
// compare byte for byte.
func snapshotBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.WriteSnapshot(&buf, store.PackOptions{}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestApplyGroupsOneGeneration proves a multi-group batch publishes exactly
// one engState generation and reports per-group outcomes.
func TestApplyGroupsOneGeneration(t *testing.T) {
	g := twoClusterGraph(t, 6)
	e, err := New(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Version()
	groups := [][]mutate.Delta{
		{mutate.SetAttr(0, []string{"a"}, nil)},
		{mutate.SetAttr(1, []string{"b"}, nil), mutate.SetAttr(2, []string{"c"}, nil)},
		{mutate.AddNode([]string{"new"}, nil)},
	}
	res, outs, err := e.ApplyGroups(groups)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version() != v0+1 || res.Version != v0+1 {
		t.Fatalf("version %d after a 3-group batch, want exactly %d", e.Version(), v0+1)
	}
	if res.Groups != 3 || res.GroupsApplied != 3 {
		t.Fatalf("group accounting: %+v", res)
	}
	if res.Applied != 4 {
		t.Fatalf("deltas applied %d, want 4", res.Applied)
	}
	for gi, o := range outs {
		if !o.Applied || o.Err != nil {
			t.Fatalf("group %d outcome: %+v", gi, o)
		}
	}
	if len(outs[2].NewNodes) != 1 {
		t.Fatalf("the add_node group's outcome must carry its node: %+v", outs[2])
	}
}

// TestApplyGroupsEquivalentToSequential proves the tentpole equivalence at
// the engine layer: a coalesced batch lands the same bytes as the same
// groups applied one Apply at a time.
func TestApplyGroupsEquivalentToSequential(t *testing.T) {
	groups := [][]mutate.Delta{
		{mutate.AddEdge(0, 7)},
		{mutate.SetAttr(3, []string{"x"}, []float64{0.25})},
		{mutate.AddNode([]string{"n1"}, nil)},
		{mutate.RemoveEdge(0, 7)},
		{mutate.AddNode([]string{"n2"}, []float64{1})},
	}

	batched, err := New(twoClusterGraph(t, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := batched.ApplyGroups(groups); err != nil {
		t.Fatal(err)
	}

	serial, err := New(twoClusterGraph(t, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		if _, err := serial.Apply(g); err != nil {
			t.Fatalf("serial group %d: %v", gi, err)
		}
	}

	if !bytes.Equal(snapshotBytes(t, batched), snapshotBytes(t, serial)) {
		t.Fatal("batched ApplyGroups diverged from sequential Apply")
	}
}

// TestApplyGroupsRejectsOnlyTheBadGroup proves per-group isolation: an
// invalid group is rejected whole, its companions still apply, and the
// state matches sequentially applying just the good groups.
func TestApplyGroupsRejectsOnlyTheBadGroup(t *testing.T) {
	groups := [][]mutate.Delta{
		{mutate.SetAttr(0, []string{"good1"}, nil)},
		{mutate.SetAttr(1, []string{"ok"}, nil), mutate.AddEdge(0, 1)}, // edge exists: rejected whole
		{mutate.SetAttr(2, []string{"good2"}, nil)},
	}
	e, err := New(twoClusterGraph(t, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, outs, err := e.ApplyGroups(groups)
	if err != nil {
		t.Fatalf("a batch with surviving groups must not error: %v", err)
	}
	if res.Groups != 3 || res.GroupsApplied != 2 {
		t.Fatalf("group accounting: %+v", res)
	}
	if !outs[0].Applied || !outs[2].Applied {
		t.Fatalf("good groups must apply: %+v", outs)
	}
	if outs[1].Applied || outs[1].Err == nil {
		t.Fatalf("bad group must be rejected whole: %+v", outs[1])
	}
	if !errors.Is(outs[1].Err, cserr.ErrInvalidRequest) {
		t.Fatalf("rejection must classify as invalid: %v", outs[1].Err)
	}
	if !strings.Contains(outs[1].Err.Error(), "delta 1") {
		t.Fatalf("rejection must name the failing delta: %v", outs[1].Err)
	}

	want, err := New(twoClusterGraph(t, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range [][]mutate.Delta{groups[0], groups[2]} {
		if _, err := want.Apply(g); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, e), snapshotBytes(t, want)) {
		t.Fatal("state after a partial batch diverged from the good groups applied alone")
	}
}

// TestApplyGroupsAllRejected proves a batch where every group fails leaves
// the state untouched and returns the first group's error.
func TestApplyGroupsAllRejected(t *testing.T) {
	e, err := New(twoClusterGraph(t, 6), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotBytes(t, e)
	v0 := e.Version()
	_, outs, err := e.ApplyGroups([][]mutate.Delta{
		{mutate.AddEdge(0, 1)}, // exists
		{},                     // empty
	})
	if err == nil {
		t.Fatal("an all-rejected batch must error")
	}
	for gi, o := range outs {
		if o.Err == nil || o.Applied {
			t.Fatalf("group %d: %+v", gi, o)
		}
	}
	if e.Version() != v0 {
		t.Fatalf("version moved on an all-rejected batch: %d", e.Version())
	}
	if !bytes.Equal(before, snapshotBytes(t, e)) {
		t.Fatal("state changed on an all-rejected batch")
	}
}

// TestApplyGroupsInterleavedNewNodes proves node-ID assignment across a
// batch matches the sequential order of the admitted groups — each group's
// outcome carries exactly its own IDs.
func TestApplyGroupsInterleavedNewNodes(t *testing.T) {
	e, err := New(twoClusterGraph(t, 4), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := graph.NodeID(8)
	_, outs, err := e.ApplyGroups([][]mutate.Delta{
		{mutate.AddNode([]string{"a"}, nil), mutate.AddNode([]string{"b"}, nil)},
		{mutate.SetAttr(0, []string{"mid"}, nil)},
		{mutate.AddNode([]string{"c"}, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].NewNodes; len(got) != 2 || got[0] != base || got[1] != base+1 {
		t.Fatalf("group 0 nodes %v, want [%d %d]", got, base, base+1)
	}
	if len(outs[1].NewNodes) != 0 {
		t.Fatalf("group 1 added no nodes but reports %v", outs[1].NewNodes)
	}
	if got := outs[2].NewNodes; len(got) != 1 || got[0] != base+2 {
		t.Fatalf("group 2 nodes %v, want [%d]", got, base+2)
	}
}
