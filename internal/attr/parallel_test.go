package attr

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func parallelTestGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	b := graph.NewBuilder(n, 2)
	words := []string{"a", "b", "c", "d", "e", "f", "g"}
	for v := 0; v < n; v++ {
		b.SetTextAttrs(graph.NodeID(v), words[rng.Intn(len(words))], words[rng.Intn(len(words))])
		b.SetNumAttrs(graph.NodeID(v), rng.Float64(), rng.NormFloat64())
		b.AddEdge(graph.NodeID(v), graph.NodeID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestQueryDistParallelMatchesSerial forces both fill paths over the same
// graph: every index is written independently, so the parallel fill must be
// bit-identical to the serial one.
func TestQueryDistParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph(t, 3000)
	m, err := NewMetric(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	old := queryDistMinParallel
	defer func() { queryDistMinParallel = old }()

	queryDistMinParallel = 1 << 30
	serial := m.QueryDist(5)
	queryDistMinParallel = 1
	parallel := m.QueryDist(5)
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("dist[%d]: serial %v parallel %v", i, serial[i], parallel[i])
		}
	}
}
