package cohesive_test

// Conformance suite run against every Maintainer implementation: the same
// behavioural contract, checked for k-core and k-truss.

import (
	"context"
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
				if kcore.MaximalSubIn(context.Background(), other, oq, 3, nil, w) != nil {
					break
				}
			}
			m := kcore.MaximalSubIn(context.Background(), g, q, 3, nil, w)
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
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			found := 0
			for seed := int64(0); seed < 20; seed++ {
				g := randomDense(seed, 14)
				rng := rand.New(rand.NewSource(seed))
				q := graph.NodeID(rng.Intn(g.NumNodes()))
				m, ok := f.build(g, q)
				if !ok {
					continue
				}
				found++
				checkContract(t, m, q, rng)
			}
			if found == 0 {
				t.Fatalf("%s: no structure found on any seed", f.name)
			}
		})
	}
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
	type frame struct{ removed []graph.NodeID }
	var stack []frame
	sizes := []int{m.Size()}
	depth := 3
	for d := 0; d < depth; d++ {
		cur := m.Members(nil)
		var v graph.NodeID = -1
		for _, cand := range cur {
			if cand != q {
				v = cand
				break
			}
		}
		if v < 0 {
			break
		}
		removed, qAlive := m.RemoveCascade(v)
		stack = append(stack, frame{removed})
		if !qAlive {
			break
		}
		sizes = append(sizes, m.Size())
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.Restore(f.removed)
		if m.Size() != sizes[len(stack)] {
			t.Fatalf("size after restore = %d, want %d", m.Size(), sizes[len(stack)])
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
		m.Restore(removed)
		if m.Size() != len(all) {
			t.Fatal("no-op remove/restore changed size")
		}
	}
}
