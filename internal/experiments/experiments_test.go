package experiments

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/graph"
)

// quietOrVerbose writes tables to stderr under -v, otherwise discards.
func quietOrVerbose(t *testing.T) io.Writer {
	if testing.Verbose() {
		return os.Stderr
	}
	return io.Discard
}

func TestF1(t *testing.T) {
	a := []graph.NodeID{1, 2, 3, 4}
	b := []graph.NodeID{3, 4, 5, 6}
	// precision 0.5, recall 0.5 → F1 0.5.
	if got := F1(a, b); got != 0.5 {
		t.Errorf("F1 = %v, want 0.5", got)
	}
	if F1(a, a) != 1 {
		t.Error("identical sets should score 1")
	}
	if F1(a, []graph.NodeID{9}) != 0 {
		t.Error("disjoint sets should score 0")
	}
	if F1(nil, a) != 0 || F1(a, nil) != 0 {
		t.Error("empty sets should score 0")
	}
}

func TestRank(t *testing.T) {
	ranks := rank([]float64{0.3, 0.1, 0.3, 0.5}, true)
	want := []int{2, 1, 2, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("rank = %v, want %v", ranks, want)
		}
	}
	desc := rank([]float64{1, 3, 2}, false)
	if desc[1] != 1 || desc[0] != 3 {
		t.Errorf("descending ranks = %v", desc)
	}
}

func TestTableRender(t *testing.T) {
	var sb strings.Builder
	tab := &Table{
		Title:   "demo",
		Header:  []string{"a", "long-header"},
		Rows:    [][]string{{"x", "1"}, {"yyyy", "2"}},
		Caption: "cap",
	}
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "long-header", "yyyy", "cap"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
