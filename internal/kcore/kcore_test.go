package kcore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// figure2Graph builds the 12-node graph of Figure 2 of the paper.
// Node IDs are v1..v12 mapped to 0..11.
func figure2Graph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12, 0)
	edges := [][2]int{
		// The 3-core component {v1..v6} (Figure 2(b) shows its structure):
		// a 6-ring with chords, every node has degree exactly 3 or 4.
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0},
		{0, 2}, {1, 3}, {2, 4}, {3, 5},
		// The second 3-core component {v7..v10} plus periphery.
		{6, 7}, {6, 8}, {6, 9}, {7, 8}, {7, 9}, {8, 9},
		// v11 connects the two parts loosely, v12 is degree-1.
		{10, 0}, {10, 6}, {11, 10},
	}
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	return b.MustBuild()
}

// naiveCoreness computes coreness by repeated peeling, the reference
// implementation for the decomposition test.
func naiveCoreness(g *graph.Graph) []int32 {
	n := g.NumNodes()
	core := make([]int32, n)
	alive := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		deg[v] = g.Degree(graph.NodeID(v))
	}
	for k := 0; ; k++ {
		// Remove everything with degree < k+1 at level k... peel at level k.
		changed := true
		for changed {
			changed = false
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					alive[v] = false
					core[v] = int32(k)
					for _, u := range g.Neighbors(graph.NodeID(v)) {
						if alive[u] {
							deg[u]--
						}
					}
					changed = true
				}
			}
		}
		done := true
		for v := 0; v < n; v++ {
			if alive[v] {
				done = false
				break
			}
		}
		if done {
			return core
		}
	}
}

func TestDecomposeAgainstNaive(t *testing.T) {
	g := figure2Graph(t)
	got := Decompose(g)
	want := naiveCoreness(g)
	for v := range got {
		if got[v] != want[v] {
			t.Errorf("coreness[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPropertyDecomposeAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := graph.NewBuilder(n, 0)
		m := rng.Intn(4 * n)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		got := Decompose(g)
		want := naiveCoreness(g)
		for v := range got {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaximalConnectedKCore(t *testing.T) {
	g := figure2Graph(t)
	// q = v5 (index 4): its 3-core is {v1..v6} = indices 0..5.
	members := MaximalConnectedKCore(g, 4, 3)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	want := []graph.NodeID{0, 1, 2, 3, 4, 5}
	if len(members) != len(want) {
		t.Fatalf("members = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members = %v, want %v", members, want)
		}
	}
	// The other 3-core component must not leak in even though v11 connects
	// them (v11 has coreness 2).
	for _, v := range members {
		if v >= 6 {
			t.Errorf("member %d from the other component", v)
		}
	}
	// No 5-core exists.
	if got := MaximalConnectedKCore(g, 4, 5); got != nil {
		t.Errorf("5-core = %v, want nil", got)
	}
	// v12 (index 11) is in no 2-core.
	if got := MaximalConnectedKCore(g, 11, 2); got != nil {
		t.Errorf("2-core of v12 = %v, want nil", got)
	}
}

func TestSubRemoveRestoreRoundTrip(t *testing.T) {
	// K5 plus a pendant node: removing one clique node leaves K4, still a
	// 3-core, so the removal survives and can be rolled back.
	b := graph.NewBuilder(6, 0)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	b.AddEdge(4, 5)
	g := b.MustBuild()
	members := MaximalConnectedKCore(g, 4, 3)
	sub, err := NewSub(g, 4, 3, members)
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(sub, g.NumNodes())
	removed, qAlive := sub.RemoveCascade(0)
	if !qAlive {
		t.Fatal("q should survive removing v1")
	}
	if len(removed) == 0 || removed[0] != 0 {
		t.Fatalf("removed = %v, want v1 first", removed)
	}
	// Removing v1 from the 3-core {v1..v6}: remaining nodes must all still
	// have degree ≥ 3.
	mem := sub.Members(nil)
	if !InKCoreSet(g, mem, 3) {
		t.Errorf("after removal, members %v are not a 3-core", mem)
	}
	sub.Restore()
	after := snapshot(sub, g.NumNodes())
	if before != after {
		t.Errorf("restore mismatch:\nbefore %v\nafter  %v", before, after)
	}
}

// snapshot serializes the alive set and degrees for round-trip comparison.
func snapshot(s *Sub, n int) string {
	var out []byte
	for v := 0; v < n; v++ {
		if s.Alive(graph.NodeID(v)) {
			out = append(out, byte('A'+s.deg[v]))
		} else {
			out = append(out, '.')
		}
	}
	return string(out)
}

func TestSubCascadeCollapse(t *testing.T) {
	// A 4-clique is a 3-core; removing any node collapses it entirely.
	b := graph.NewBuilder(4, 0)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	g := b.MustBuild()
	members := MaximalConnectedKCore(g, 0, 3)
	sub, err := NewSub(g, 0, 3, members)
	if err != nil {
		t.Fatal(err)
	}
	removed, qAlive := sub.RemoveCascade(1)
	if qAlive {
		t.Error("q should die when the 4-clique collapses")
	}
	if len(removed) != 4 {
		t.Errorf("removed %d nodes, want 4", len(removed))
	}
	sub.Restore()
	if sub.Size() != 4 || !sub.Alive(0) {
		t.Errorf("restore failed: size=%d", sub.Size())
	}
}

func TestSubComponentRestriction(t *testing.T) {
	// Two triangles sharing a cut vertex c (index 2): a 2-core. Removing c
	// must keep only q's triangle.
	b := graph.NewBuilder(5, 0)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g := b.MustBuild()
	members := MaximalConnectedKCore(g, 0, 1)
	sub, err := NewSub(g, 0, 1, members)
	if err != nil {
		t.Fatal(err)
	}
	_, qAlive := sub.RemoveCascade(2)
	if !qAlive {
		t.Fatal("q must survive")
	}
	mem := sub.Members(nil)
	if len(mem) != 2 {
		t.Errorf("members = %v, want {0,1}", mem)
	}
	for _, v := range mem {
		if v > 1 {
			t.Errorf("disconnected node %d kept", v)
		}
	}
	sub.Restore()
	if sub.Size() != 5 {
		t.Errorf("size after restore = %d, want 5", sub.Size())
	}
}

func TestPropertyRemoveRestoreRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(24)
		b := graph.NewBuilder(n, 0)
		m := n * (2 + rng.Intn(3))
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.MustBuild()
		k := 1 + rng.Intn(3)
		q := graph.NodeID(rng.Intn(n))
		members := MaximalConnectedKCore(g, q, k)
		if members == nil {
			return true
		}
		sub, err := NewSub(g, q, k, members)
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			mem := sub.Members(nil)
			v := mem[rng.Intn(len(mem))]
			if v == q {
				continue
			}
			sizeBefore := sub.Size()
			if _, qAlive := sub.RemoveCascade(v); qAlive {
				// Survivors must form a connected k-core containing q.
				cur := sub.Members(nil)
				if !InKCoreSet(g, cur, k) {
					return false
				}
				if !containsNode(cur, q) {
					return false
				}
			}
			sub.Restore()
			if sub.Size() != sizeBefore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func containsNode(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestMaxCoreness(t *testing.T) {
	g := figure2Graph(t)
	max, avg := MaxCoreness(g)
	if max != 3 {
		t.Errorf("max coreness = %d, want 3", max)
	}
	if avg <= 0 || avg > 3 {
		t.Errorf("avg coreness = %v out of range", avg)
	}
}

func TestNewSubRejectsInvalid(t *testing.T) {
	g := figure2Graph(t)
	if _, err := NewSub(g, 4, 3, []graph.NodeID{0, 1, 2}); err == nil {
		t.Error("NewSub accepted a non-3-core member set")
	}
	if _, err := NewSub(g, 11, 3, MaximalConnectedKCore(g, 4, 3)); err == nil {
		t.Error("NewSub accepted a member set without q")
	}
}
