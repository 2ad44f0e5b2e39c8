package cohesive_test

// Conformance suite run against every Maintainer implementation: the same
// behavioural contract, checked for k-core and k-truss.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cohesive"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/truss"
	"repro/internal/ws"
)

// randomDense returns a dense random graph.
func randomDense(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, 0)
	for i := 0; i < 5*n; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

type factory struct {
	name  string
	k     int
	build func(g *graph.Graph, q graph.NodeID) (cohesive.Maintainer, bool)
}

func factories() []factory {
	return []factory{
		{"kcore", 3, func(g *graph.Graph, q graph.NodeID) (cohesive.Maintainer, bool) {
			members := kcore.MaximalConnectedKCore(g, q, 3)
			if members == nil {
				return nil, false
			}
			m, err := kcore.NewSub(g, q, 3, members)
			if err != nil {
				return nil, false
			}
			return m, true
		}},
		// The pooled extraction, on a workspace that has already served another
		// universe: nothing of the first may be alive in the second.
		{"kcore-pooled", 3, func(g *graph.Graph, q graph.NodeID) (cohesive.Maintainer, bool) {
			w := new(ws.Workspace)
			other := randomDense(int64(q)+100, g.NumNodes())
			for oq := graph.NodeID(0); int(oq) < other.NumNodes(); oq++ {
				if s, _ := kcore.MaximalSubIn(context.Background(), other, oq, 3, nil, math.MaxInt, w); s != nil {
					break
				}
			}
			m, _ := kcore.MaximalSubIn(context.Background(), g, q, 3, nil, math.MaxInt, w)
			return m, m != nil
		}},
		{"truss", 3, func(g *graph.Graph, q graph.NodeID) (cohesive.Maintainer, bool) {
			members := truss.MaximalConnectedKTruss(g, q, 3)
			if members == nil {
				return nil, false
			}
			m, err := truss.NewSub(g, q, 3, members)
			if err != nil {
				return nil, false
			}
			return m, true
		}},
	}
}

func TestConformance(t *testing.T) {
	eachInstance(t, func(t *testing.T, _ int64, q graph.NodeID, m cohesive.Maintainer, rng *rand.Rand) {
		checkContract(t, m, q, rng)
	})
}

// checkContract exercises the Maintainer contract on one instance.
func checkContract(t *testing.T, m cohesive.Maintainer, q graph.NodeID, rng *rand.Rand) {
	t.Helper()
	if m.Query() != q {
		t.Fatalf("Query() = %d, want %d", m.Query(), q)
	}
	members := m.Members(nil)
	if len(members) != m.Size() {
		t.Fatalf("Members len %d != Size %d", len(members), m.Size())
	}
	for v := graph.NodeID(0); v < 14; v++ {
		if m.Alive(v) != slices.Contains(members, v) {
			t.Fatalf("Alive(%d) = %v, Members() = %v", v, m.Alive(v), members)
		}
	}
	hasQ := false
	for _, v := range members {
		if v == q {
			hasQ = true
		}
	}
	if !hasQ {
		t.Fatal("query not a member")
	}

	// Nested remove/restore must be an exact inverse (LIFO discipline).
	open := 0
	sizes := []int{m.Size()}
	depth := 3
	for d := 0; d < depth; d++ {
		v := firstOther(m, q)
		if v < 0 {
			break
		}
		_, qAlive := m.RemoveCascade(v)
		open++
		if !qAlive {
			break
		}
		sizes = append(sizes, m.Size())
	}
	for ; open > 0; open-- {
		m.Restore()
		if m.Size() != sizes[open-1] {
			t.Fatalf("size after restore = %d, want %d", m.Size(), sizes[open-1])
		}
	}
	after := m.Members(nil)
	if len(after) != len(members) {
		t.Fatalf("members after full restore: %d, want %d", len(after), len(members))
	}
	// Removing a dead node is a no-op that still restores cleanly.
	all := m.Members(nil)
	var nonMember graph.NodeID = -1
	for v := graph.NodeID(0); int(v) < 14; v++ {
		if !m.Alive(v) {
			nonMember = v
			break
		}
	}
	if nonMember >= 0 {
		removed, _ := m.RemoveCascade(nonMember)
		if len(removed) != 0 {
			t.Fatalf("removing dead node removed %v", removed)
		}
		m.Restore()
		if m.Size() != len(all) {
			t.Fatal("no-op remove/restore changed size")
		}
	}
}

// firstOther returns the first member other than q, or -1.
func firstOther(m cohesive.Maintainer, q graph.NodeID) graph.NodeID {
	for _, v := range m.Members(nil) {
		if v != q {
			return v
		}
	}
	return -1
}

// eachInstance runs fn on every factory's maintainer for each of the suite's
// seeds that hosts one.
func eachInstance(t *testing.T, fn func(t *testing.T, seed int64, q graph.NodeID, m cohesive.Maintainer, rng *rand.Rand)) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			found := 0
			for seed := int64(0); seed < 20; seed++ {
				g := randomDense(seed, 14)
				rng := rand.New(rand.NewSource(seed))
				q := graph.NodeID(rng.Intn(g.NumNodes()))
				if m, ok := f.build(g, q); ok {
					found++
					fn(t, seed, q, m, rng)
				}
			}
			if found == 0 {
				t.Fatalf("%s: no structure found on any seed", f.name)
			}
		})
	}
}

// TestConformanceWindowsOutliveNestedCalls peels q's structure call by call,
// with a remove/restore pair on a random member before each call, so the log
// grows past its capacity while calls are open. Every open call's window
// must keep what it returned, also when the caller appends to an older
// window (as a caller may: the window is capped, so the append cannot write
// over the newer call's entries), and unwinding must rebuild the structure.
func TestConformanceWindowsOutliveNestedCalls(t *testing.T) {
	eachInstance(t, func(t *testing.T, seed int64, q graph.NodeID, m cohesive.Maintainer, rng *rand.Rand) {
		start := m.Members(nil)
		var windows, want [][]graph.NodeID
		check := func(when string) {
			t.Helper()
			for i := range windows {
				if !slices.Equal(windows[i], want[i]) {
					t.Fatalf("seed %d, %s: open call %d holds %v, returned %v", seed, when, i, windows[i], want[i])
				}
			}
		}
		for v := firstOther(m, q); v >= 0; v = firstOther(m, q) {
			alive := m.Members(nil)
			m.RemoveCascade(alive[rng.Intn(len(alive))])
			m.Restore()
			check("after a pair")
			removed, qAlive := m.RemoveCascade(v)
			windows, want = append(windows, removed), append(want, slices.Clone(removed))
			if n := len(windows); n > 1 {
				if grown := append(windows[n-2], -1); grown[len(grown)-1] != -1 {
					t.Fatal("append to a window lost its element")
				}
			}
			check("after a removal")
			if !qAlive {
				break
			}
		}
		for len(windows) > 0 {
			check("before a restore")
			m.Restore()
			windows, want = windows[:len(windows)-1], want[:len(want)-1]
		}
		if got := m.Members(nil); !slices.Equal(got, start) {
			t.Fatalf("seed %d: unwound to %v, built with %v", seed, got, start)
		}
	})
}

// TestConformanceRemoveRestoreAllocatesNothing: once the maintainer's
// scratch is warm, a RemoveCascade and its Restore allocate nothing, for
// every member removed (q included, whose removal ends the structure). The
// pairs repeat 64 times in the measured run, so a log that keeps entries
// Restore should have popped outgrows its capacity and shows.
func TestConformanceRemoveRestoreAllocatesNothing(t *testing.T) {
	eachInstance(t, func(t *testing.T, seed int64, _ graph.NodeID, m cohesive.Maintainer, _ *rand.Rand) {
		members := m.Members(nil)
		pairs := func() {
			for range 64 {
				for _, v := range members {
					m.RemoveCascade(v)
					m.Restore()
				}
			}
		}
		if allocs := testing.AllocsPerRun(1, pairs); allocs != 0 {
			t.Fatalf("seed %d: %v allocs in 64 rounds of %d remove/restore pairs, want 0", seed, allocs, len(members))
		}
	})
}
