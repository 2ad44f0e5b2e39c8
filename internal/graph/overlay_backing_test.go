package graph_test

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// model is the reference state a delta sequence is replayed into: plain
// sets and rows, rebuilt through a Builder to get the expected graph.
type model struct {
	edges map[[2]graph.NodeID]bool
	text  [][]string
	num   [][]float64
}

func edgeKey(u, v graph.NodeID) [2]graph.NodeID {
	if u > v {
		u, v = v, u
	}
	return [2]graph.NodeID{u, v}
}

func (m *model) clone() *model {
	c := &model{edges: make(map[[2]graph.NodeID]bool, len(m.edges))}
	for e := range m.edges {
		c.edges[e] = true
	}
	c.text = append([][]string(nil), m.text...)
	c.num = append([][]float64(nil), m.num...)
	return c
}

// build rebuilds the model through a Builder that interns into a copy of
// dict, so token IDs match an overlay that ended with that dictionary.
func (m *model) build(t *testing.T, dict *graph.Dict, dim int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(m.text), dim)
	d, err := graph.NewDictFromNames(dict.Names())
	if err != nil {
		t.Fatal(err)
	}
	b.SetDict(d)
	for v := range m.text {
		b.SetTextAttrs(graph.NodeID(v), m.text[v]...)
		b.SetNumAttrs(graph.NodeID(v), m.num[v]...)
	}
	for e := range m.edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func randomBase(rng *rand.Rand, n, dim int) (*graph.Graph, *model) {
	m := &model{edges: map[[2]graph.NodeID]bool{}}
	b := graph.NewBuilder(n, dim)
	for v := 0; v < n; v++ {
		tx := []string{fmt.Sprintf("t%d", rng.Intn(6)), fmt.Sprintf("t%d", rng.Intn(6))}
		nm := make([]float64, dim)
		for i := range nm {
			nm[i] = rng.Float64()
		}
		m.text = append(m.text, tx)
		m.num = append(m.num, nm)
		b.SetTextAttrs(graph.NodeID(v), tx...)
		b.SetNumAttrs(graph.NodeID(v), nm...)
	}
	for i := 0; i < 3*n; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !m.edges[edgeKey(u, v)] {
			m.edges[edgeKey(u, v)] = true
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild(), m
}

// backings returns g served two ways: the heap Graph and a mapped v2
// snapshot (a *graph.Graph over the mapping).
func backings(t *testing.T, g *graph.Graph) map[string]*graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mapped.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(f, g, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"heap": g, "mapped": mount(t, path)}
}

// mount opens path through the catalog's mount path, unmapping at cleanup.
func mount(t *testing.T, path string) *graph.Graph {
	t.Helper()
	m, err := store.MountGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.Store
}

// modelOf reads g back into a model, for bases that were not built from one.
func modelOf(g *graph.Graph) *model {
	m := &model{edges: map[[2]graph.NodeID]bool{}}
	names := g.Dict().Names()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(v) {
			m.edges[edgeKey(v, u)] = true
		}
		var tx []string
		for _, id := range g.TextAttrs(v) {
			tx = append(tx, names[id])
		}
		m.text = append(m.text, tx)
		m.num = append(m.num, slices.Clone(g.NumAttrs(v)))
	}
	return m
}

// applyRandom replays one random delta sequence into ov and m alike. It
// covers add/remove cancel pairs, add_node with edges to the new node,
// set_attr with unseen tokens and numeric set_attr.
func applyRandom(t *testing.T, rng *rand.Rand, ov *graph.Overlay, m *model, steps int) {
	t.Helper()
	dim := ov.NumDim()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	randomNum := func() []float64 {
		nm := make([]float64, dim)
		for i := range nm {
			nm[i] = rng.Float64()
		}
		return nm
	}
	for i := 0; i < steps; i++ {
		n := len(m.text)
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		switch rng.Intn(7) {
		case 0: // add_edge
			if u == v || m.edges[edgeKey(u, v)] {
				continue
			}
			must(ov.AddEdge(u, v))
			m.edges[edgeKey(u, v)] = true
		case 1: // remove_edge, chosen in sorted order so every replay agrees
			all := make([][2]graph.NodeID, 0, len(m.edges))
			for e := range m.edges {
				all = append(all, e)
			}
			if len(all) == 0 {
				continue
			}
			slices.SortFunc(all, func(a, b [2]graph.NodeID) int {
				return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
			})
			e := all[rng.Intn(len(all))]
			must(ov.RemoveEdge(e[1], e[0]))
			delete(m.edges, e)
		case 2: // a cancel pair: add then remove, or remove then re-add
			if u == v {
				continue
			}
			if m.edges[edgeKey(u, v)] {
				must(ov.RemoveEdge(u, v))
				must(ov.AddEdge(v, u))
			} else {
				must(ov.AddEdge(u, v))
				must(ov.RemoveEdge(v, u))
			}
		case 3: // add_node, then edges to it
			tx := []string{fmt.Sprintf("t%d", rng.Intn(6)), fmt.Sprintf("fresh%d", rng.Intn(4))}
			nm := randomNum()
			id, err := ov.AddNode(tx, nm)
			must(err)
			m.text = append(m.text, tx)
			m.num = append(m.num, nm)
			for j := rng.Intn(3); j > 0; j-- {
				w := graph.NodeID(rng.Intn(int(id)))
				if !m.edges[edgeKey(id, w)] {
					must(ov.AddEdge(w, id))
					m.edges[edgeKey(id, w)] = true
				}
			}
		case 4: // set_attr text, sometimes with an unseen token
			tx := []string{fmt.Sprintf("t%d", rng.Intn(6))}
			if rng.Intn(2) == 0 {
				tx = append(tx, fmt.Sprintf("unseen%d", rng.Intn(5)))
			}
			must(ov.SetAttrs(u, tx, nil))
			m.text[u] = tx
		case 5: // numeric set_attr
			nm := randomNum()
			must(ov.SetAttrs(u, nil, nm))
			m.num[u] = nm
		default: // both columns at once
			tx := []string{fmt.Sprintf("t%d", rng.Intn(6))}
			nm := randomNum()
			must(ov.SetAttrs(u, tx, nm))
			m.text[u], m.num[u] = tx, nm
		}
	}
}

// normalized maps empty slices to nil, so a column that is empty on disk
// (mapped as nil) compares equal to an empty heap column.
func normalized(r graph.Raw) graph.Raw {
	if len(r.Adj) == 0 {
		r.Adj = nil
	}
	if len(r.Text) == 0 {
		r.Text = nil
	}
	if len(r.Num) == 0 {
		r.Num = nil
	}
	return r
}

// TestOverlayMaterializeBackings extends TestOverlayMaterializeMatchesBuilder
// across the bases Materialize folds over: for random delta sequences on
// heap and mapped bases, and on the graph a legacy compressed snapshot
// decodes to, the materialized graph must export exactly what a Builder
// rebuilds from the same final state.
func TestOverlayMaterializeBackings(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for base := 0; base < 20; base++ {
		dim := base % 3 // 0 exercises the empty numeric column
		g, m0 := randomBase(rng, 12+rng.Intn(30), dim)
		materializeSequences(t, rng, fmt.Sprintf("base %d", base), backings(t, g), m0)
		// The bases are read-only: nothing above may have written them.
		if !reflect.DeepEqual(normalized(g.Export()), normalized(m0.build(t, g.Dict(), dim).Export())) {
			t.Fatalf("base %d: base graph changed", base)
		}
	}
	legacy := mount(t, "../store/testdata/v2c-figure1.snap")
	materializeSequences(t, rng, "legacy", map[string]*graph.Graph{"legacy": legacy}, modelOf(legacy))
}

// materializeSequences replays 15 random delta sequences over every base in
// stores, all holding the graph m0 describes, and compares each
// materialized graph with the Builder rebuild of the sequence's final state.
func materializeSequences(t *testing.T, rng *rand.Rand, label string, stores map[string]*graph.Graph, m0 *model) {
	t.Helper()
	names := slices.Sorted(maps.Keys(stores))
	for seq := 0; seq < 15; seq++ {
		seed := rng.Int63()
		steps := 1 + rng.Intn(12)
		var want *graph.Raw
		for _, name := range names {
			ov := graph.NewOverlay(stores[name])
			m := m0.clone()
			applyRandom(t, rand.New(rand.NewSource(seed)), ov, m, steps)
			got := normalized(ov.Materialize().Export())
			if want == nil {
				r := normalized(m.build(t, ov.Dict(), ov.NumDim()).Export())
				want = &r
			}
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("%s seq %d on %s: materialized graph differs from the rebuilt one\ngot  %+v\nwant %+v",
					label, seq, name, got, *want)
			}
		}
	}
}

// TestOverlayMaterializeSharesUnwrittenColumns checks that a batch copies
// only the columns it wrote: over a flat base (heap or mapped), a
// set_attr-only batch reuses the base's adjacency arrays and an edge-only
// batch reuses its attribute arrays.
func TestOverlayMaterializeSharesUnwrittenColumns(t *testing.T) {
	g, _ := randomBase(rand.New(rand.NewSource(5)), 30, 2)
	same := func(a, b []int32) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	sameF := func(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }
	for name, s := range backings(t, g) {
		base := s.Export()

		attrOnly := graph.NewOverlay(s)
		if err := attrOnly.SetAttrs(3, []string{"never-seen"}, []float64{0.5, 0.25}); err != nil {
			t.Fatal(err)
		}
		got := attrOnly.Materialize().Export()
		if !same(got.Offsets, base.Offsets) || !same(got.Adj, base.Adj) {
			t.Errorf("%s: set_attr-only batch copied the adjacency", name)
		}
		if same(got.Text, base.Text) || sameF(got.Num, base.Num) {
			t.Errorf("%s: set_attr-only batch shares the attribute columns it wrote", name)
		}

		edgeOnly := graph.NewOverlay(s)
		u, v := graph.NodeID(0), graph.NodeID(1)
		if s.HasEdge(u, v) {
			if err := edgeOnly.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
		} else if err := edgeOnly.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		got = edgeOnly.Materialize().Export()
		if !same(got.TextOff, base.TextOff) || !same(got.Text, base.Text) || !sameF(got.Num, base.Num) {
			t.Errorf("%s: edge-only batch copied the attribute columns", name)
		}
		if same(got.Adj, base.Adj) {
			t.Errorf("%s: edge-only batch shares the adjacency it wrote", name)
		}
	}
}
