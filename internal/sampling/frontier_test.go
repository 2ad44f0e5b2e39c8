package sampling

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/ws"
)

// TestFrontierPopsInFIDOrder drives the frontier and a reference that pops
// the (f, ID)-least entry by a linear scan with the same random push/pop
// schedule, then drains both, and demands the same entries in the same
// order. The legs: uniform keys; tie-heavy keys (1–6 distinct values, so
// most pops choose among equal f by ID, and buckets grow long enough to move
// into the heap while others stay lists); all keys equal (every entry in
// one bucket); and keys at exactly 0 and 1, the edges of the bucket table.
func TestFrontierPopsInFIDOrder(t *testing.T) {
	run := func(t *testing.T, rng *rand.Rand, steps int, key func() float64) {
		t.Helper()
		var fr ws.Frontier
		frontierReset(&fr)
		var ref []ws.NodeDist
		popRef := func() ws.NodeDist {
			m := 0
			for i, x := range ref {
				if x.D < ref[m].D || x.D == ref[m].D && x.V < ref[m].V {
					m = i
				}
			}
			x := ref[m]
			ref[m] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			return x
		}
		check := func(step int) {
			got, want := frontierPop(&fr), popRef()
			if got != want {
				t.Fatalf("step %d: pop (%d,%v), want (%d,%v)", step, got.V, got.D, want.V, want.D)
			}
			if fr.Len != len(ref) {
				t.Fatalf("step %d: frontier holds %d, want %d", step, fr.Len, len(ref))
			}
		}
		for step := 0; step < steps; step++ {
			if len(ref) == 0 || rng.Intn(3) != 0 {
				x := ws.NodeDist{V: graph.NodeID(rng.Intn(1000)), D: key()}
				frontierPush(&fr, x.V, x.D)
				ref = append(ref, x)
			} else {
				check(step)
			}
		}
		for len(ref) > 0 {
			check(steps)
		}
	}
	t.Run("uniform", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		run(t, rng, 5000, rng.Float64)
	})
	t.Run("ties", func(t *testing.T) {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			values := make([]float64, 1+rng.Intn(6))
			for i := range values {
				values[i] = rng.Float64()
			}
			run(t, rng, 1000, func() float64 { return values[rng.Intn(len(values))] })
		}
	})
	t.Run("equal", func(t *testing.T) {
		for seed, f := range []float64{0, 0.5, 1} {
			rng := rand.New(rand.NewSource(int64(seed)))
			run(t, rng, 3000, func() float64 { return f })
		}
	})
	t.Run("edges", func(t *testing.T) {
		oneBelow := 1 - 1.0/(1<<53)
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			run(t, rng, 1000, func() float64 {
				switch rng.Intn(4) {
				case 0:
					return 0
				case 1:
					return 1
				case 2:
					return oneBelow
				}
				return rng.Float64()
			})
		}
	})
}

// TestBuildGqCostWithoutAttributes expands the whole component of a node of
// a generated graph without attributes, where f ≡ 0 puts every frontier
// entry in one bucket. The frontier's lists must be scanned a bounded
// number of times per node, not once per frontier entry per pop: a linear
// scan of that bucket on every pop visits thousands of entries per node
// here.
func TestBuildGqCostWithoutAttributes(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "plain", Nodes: 100_000, MinCommunity: 16, MaxCommunity: 40,
		IntraDegree: 10, InterDegree: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	m, err := attr.NewMetric(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	w := testWS(t)
	q := graph.NodeID(0)
	f := m.View(q, &w.Dist)
	gq := BuildGqView(nil, g, q, &f, g.NumNodes(), w)
	comp := g.Component(q, nil)
	if len(gq) != len(comp) || len(comp) < 100_000/2 {
		t.Fatalf("expanded %d nodes of a component of %d in a graph of %d", len(gq), len(comp), g.NumNodes())
	}
	for _, v := range gq[:100] {
		if x := f.At(v); x != 0 {
			t.Fatalf("f(%d) = %v: the graph has attributes", v, x)
		}
	}
	const perNode = 32
	if scanned := w.Frontier.Scanned; scanned > perNode*len(gq) {
		t.Fatalf("pops scanned %d list entries for %d nodes (%.1f per node), bound %d per node",
			scanned, len(gq), float64(scanned)/float64(len(gq)), perNode)
	}
	t.Logf("%d nodes, %.2f list entries scanned per node", len(gq), float64(w.Frontier.Scanned)/float64(len(gq)))
}

// TestFrontierRetainsWhatItHeld: after 300 expansions of distinct q on the
// twitter analog to twice Theorem 10's size, a workspace's frontier holds
// no more than twice the bytes of the largest frontier any of them reached,
// beside its fixed tables. The largest frontier is counted from each
// expansion's list, apart from the frontier itself.
func TestFrontierRetainsWhatItHeld(t *testing.T) {
	if testing.Short() {
		t.Skip("300 expansions of the twitter analog")
	}
	d, err := dataset.Homogeneous("twitter", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	size, err := stats.MinGqSizeCore(0.05, 0.05, 6, d.Graph.NumNodes()) // SEA's default ε and β
	if err != nil {
		t.Fatal(err)
	}
	w := testWS(t)
	var gq []graph.NodeID
	var seen graph.NodeSet
	largest := 0
	eligible := d.Eligible(6)
	rand.New(rand.NewSource(11)).Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	for i, q := range eligible[:300] {
		f := m.View(q, &w.Dist)
		gq = BuildGqView(gq[:0], d.Graph, q, &f, 2*size, w)
		if i == 0 && len(gq) != 2*size {
			t.Fatalf("expanded %d nodes, want %d", len(gq), 2*size)
		}
		// After the j-th pop and its pushes the frontier holds the nodes
		// seen so far (q and the popped nodes' neighbours) less the j
		// popped: its largest size, read off the expansion's list.
		seen.Reset(d.Graph.NumNodes())
		seen.Add(q)
		for j, v := range gq {
			for _, u := range d.Graph.Neighbors(v) {
				seen.Add(u)
			}
			largest = max(largest, seen.Len()-(j+1))
		}
	}
	fr := &w.Frontier
	entry := int(unsafe.Sizeof(ws.FrontierEntry{}))
	held := cap(fr.Slab)*entry + cap(fr.Heap)*int(unsafe.Sizeof(fr.Heap[0]))
	if held > 2*largest*entry {
		t.Fatalf("frontier holds %d B (slab %d entries, heap %d) after a largest frontier of %d entries of %d B", held, cap(fr.Slab), cap(fr.Heap), largest, entry)
	}
	t.Logf("largest frontier %d entries; held: slab %d, heap %d", largest, cap(fr.Slab), cap(fr.Heap))
}
