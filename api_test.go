package sea

// Integration tests exercising the public API end to end, the way the
// examples and a downstream user would: one Request answered by many
// methods through Searcher, Engine and HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// buildFigure1 constructs the quickstart graph (Figure 1's movies).
func buildFigure1(t testing.TB) (*Graph, *Metric) {
	t.Helper()
	b := NewGraphBuilder(12, 2)
	attrs := [][]string{
		{"movie", "crime", "drama"}, {"movie", "crime", "drama"},
		{"movie", "crime", "drama"}, {"movie", "crime", "drama"},
		{"movie", "crime", "drama"}, {"movie", "crime", "drama"},
		{"movie", "crime", "drama"}, {"movie", "crime", "drama"},
		{"movie", "crime", "drama"}, {"movie", "crime", "drama"},
		{"movie", "action", "drama"}, {"movie", "action", "crime"},
	}
	nums := [][2]float64{
		{9.2, 1.6e6}, {9.0, 1.1e6}, {8.7, 1.0e6}, {8.3, 550e3},
		{8.3, 320e3}, {7.9, 280e3}, {8.3, 750e3}, {7.5, 300e3},
		{7.6, 360e3}, {8.2, 500e3}, {6.2, 6.7e3}, {6.5, 9e3},
	}
	for i := range attrs {
		b.SetTextAttrs(NodeID(i), attrs[i]...)
		b.SetNumAttrs(NodeID(i), nums[i][0], nums[i][1])
	}
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 8}, {1, 2}, {1, 4}, {1, 8},
		{2, 3}, {2, 9}, {3, 9}, {4, 5}, {4, 8}, {5, 6}, {5, 7}, {6, 7},
		{2, 4}, {3, 5}, {6, 9}, {7, 9}, {0, 9}, {1, 3},
		{10, 11}, {10, 6}, {11, 7}, {10, 7}, {11, 6},
	}
	for _, e := range edges {
		b.AddEdge(NodeID(e[0]), NodeID(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMetric(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func TestQuickstartEndToEnd(t *testing.T) {
	g, m := buildFigure1(t)
	ctx := context.Background()

	req := DefaultRequest(0) // The Godfather
	req.K = 3
	req.ErrorBound = 0.01

	req.Method = MethodExact
	ex, err := ExecuteWithMetric(ctx, g, m, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Method = MethodSEA
	res, err := ExecuteWithMetric(ctx, g, m, req)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Delta <= 0 || res.Delta <= 0 {
		t.Fatalf("δ: exact %v, sea %v", ex.Delta, res.Delta)
	}
	rel := math.Abs(res.Delta-ex.Delta) / ex.Delta
	if rel > 0.1 {
		t.Errorf("relative error %v too large on the quickstart graph", rel)
	}
	// The low-rated action movies must be excluded.
	for _, v := range res.Community {
		if v == 10 || v == 11 {
			t.Errorf("dissimilar movie %d in community", v)
		}
	}
	if res.SEA == nil || len(res.SEA.Rounds) == 0 {
		t.Error("SEA outcome missing its trace")
	}
}

func TestPublicExactMatchesInternalDelta(t *testing.T) {
	g, m := buildFigure1(t)
	req := DefaultRequest(0)
	req.K = 3
	req.Method = MethodExact
	ex, err := ExecuteWithMetric(context.Background(), g, m, req)
	if err != nil {
		t.Fatal(err)
	}
	dist := m.QueryDist(0)
	if got := Delta(dist, ex.Community, 0); got != ex.Delta {
		t.Errorf("Delta recomputation %v != %v", got, ex.Delta)
	}
}

func TestAllMethodsThroughPublicAPI(t *testing.T) {
	g, _ := buildFigure1(t)
	req := DefaultRequest(0)
	req.K = 3
	req.MaxStates = 50000
	for _, m := range Methods() {
		s, err := NewSearcher(m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		out, err := s.Search(context.Background(), g, req)
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if len(out.Community) == 0 || out.Method != m {
			t.Errorf("%v: %+v", m, out)
		}
	}
}

// TestRequestRoundTripsEverywhere is the acceptance criterion end to end:
// one Request answered by the library (Searcher.Search), the Engine, and
// the HTTP server returns the identical community and δ on every path.
func TestRequestRoundTripsEverywhere(t *testing.T) {
	g, _ := buildFigure1(t)
	ctx := context.Background()
	req := DefaultRequest(0)
	req.K = 3

	s, err := NewSearcher(MethodSEA)
	if err != nil {
		t.Fatal(err)
	}
	viaLibrary, err := s.Search(ctx, g, req)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := NewEngine(g, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := eng.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// One engine is served as a one-dataset catalog.
	cat := NewCatalog()
	defer cat.Close()
	if _, err := cat.Mount("g", eng, DefaultEngineConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewCatalogHTTPHandler(cat, DefaultEngineConfig()))
	defer srv.Close()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/search", "application/json", strings.NewReader(string(blob)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP status %d", resp.StatusCode)
	}
	var viaHTTP struct {
		Community []NodeID `json:"community"`
		Delta     float64  `json:"delta"`
		Method    string   `json:"method"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprint(viaLibrary.Community)
	if fmt.Sprint(viaEngine.Community) != want || fmt.Sprint(viaHTTP.Community) != want {
		t.Fatalf("round trip diverged:\nlibrary %v\nengine  %v\nhttp    %v",
			viaLibrary.Community, viaEngine.Community, viaHTTP.Community)
	}
	if viaEngine.Delta != viaLibrary.Delta || viaHTTP.Delta != viaLibrary.Delta {
		t.Fatalf("δ diverged: library %v engine %v http %v",
			viaLibrary.Delta, viaEngine.Delta, viaHTTP.Delta)
	}
	if viaHTTP.Method != "sea" {
		t.Fatalf("method lost on the wire: %+v", viaHTTP)
	}
}

// TestExecuteHonorsCancelledContext pins the public cancellation contract.
func TestExecuteHonorsCancelledContext(t *testing.T) {
	g, _ := buildFigure1(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := DefaultRequest(0)
	req.K = 3
	for _, m := range []Method{MethodSEA, MethodVAC, MethodEVAC} {
		req.Method = m
		if _, err := Execute(ctx, g, req); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: want context.Canceled, got %v", m, err)
		}
	}
}

func TestCoreAndTrussHelpers(t *testing.T) {
	g, _ := buildFigure1(t)
	core := CoreDecompose(g)
	if len(core) != g.NumNodes() {
		t.Fatalf("coreness len = %d", len(core))
	}
	members := MaximalConnectedKCore(g, 0, 3)
	if members == nil {
		t.Fatal("no 3-core around the query")
	}
	if MaximalConnectedKTruss(g, 0, 3) == nil {
		t.Fatal("no 3-truss around the query")
	}
}

func TestHeterogeneousPipeline(t *testing.T) {
	b := NewHetGraphBuilder()
	author := b.NodeType("author")
	paper := b.NodeType("paper")
	writes := b.EdgeType("writes")
	var authors []NodeID
	for i := 0; i < 6; i++ {
		a := b.AddNode(author)
		b.SetTextAttrs(a, "topic")
		b.SetNumAttrs(a, float64(i))
		authors = append(authors, a)
	}
	// Clique of co-authorships among the first five authors.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			p := b.AddNode(paper)
			b.AddEdge(authors[i], p, writes)
			b.AddEdge(authors[j], p, writes)
		}
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path, err := b.MetaPathByNames("author", "writes", "paper", "writes", "author")
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Project(h, path)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Graph.NumNodes() != 6 {
		t.Fatalf("projection nodes = %d", proj.Graph.NumNodes())
	}
	req := DefaultRequest(proj.FromHet[authors[0]])
	req.K = 3
	res, err := Execute(context.Background(), proj.Graph, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Community) < 4 {
		t.Errorf("community = %v, want the co-author clique", res.Community)
	}
	// The isolated sixth author cannot be in it.
	for _, v := range res.Community {
		if proj.ToHet[v] == authors[5] {
			t.Error("isolated author in community")
		}
	}
}

func TestGraphFileRoundTripPublic(t *testing.T) {
	g, _ := buildFigure1(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("round trip changed graph: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestGenerateDatasetPublic(t *testing.T) {
	d, err := GenerateDataset("facebook", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Graph.NumNodes() == 0 {
		t.Fatal("empty dataset")
	}
	hd, err := GenerateHetDataset("dblp", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if hd.Het.NumNodes() == 0 {
		t.Fatal("empty het dataset")
	}
	if _, err := GenerateDataset("bogus", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestSearchNoCommunityPublic(t *testing.T) {
	b := NewGraphBuilder(3, 0)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	req := DefaultRequest(0)
	req.K = 3
	if _, err := Execute(context.Background(), g, req); !errors.Is(err, ErrNoCommunity) {
		t.Errorf("err = %v, want ErrNoCommunity", err)
	}
	req.Method = MethodExact
	if _, err := Execute(context.Background(), g, req); !errors.Is(err, ErrNoCommunity) {
		t.Errorf("exact err = %v, want the same ErrNoCommunity", err)
	}
}
