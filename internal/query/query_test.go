package query

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/sea"
)

// figure1 builds the quickstart graph (Figure 1's movies): a dense crime-
// drama clique with two action movies hanging off it.
func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12, 2)
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
		b.SetTextAttrs(graph.NodeID(i), attrs[i]...)
		b.SetNumAttrs(graph.NodeID(i), nums[i][0], nums[i][1])
	}
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 8}, {1, 2}, {1, 4}, {1, 8},
		{2, 3}, {2, 9}, {3, 9}, {4, 5}, {4, 8}, {5, 6}, {5, 7}, {6, 7},
		{2, 4}, {3, 5}, {6, 9}, {7, 9}, {0, 9}, {1, 3},
		{10, 11}, {10, 6}, {11, 7}, {10, 7}, {11, 6},
	}
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRequestValidate(t *testing.T) {
	valid := func() Request {
		r := DefaultRequest(0)
		r.K = 3
		return r
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Request)
		ok     bool
	}{
		{"defaults", func(r *Request) {}, true},
		{"zero values resolve to defaults", func(r *Request) { *r = Request{Query: 1} }, true},
		{"negative query", func(r *Request) { r.Query = -1 }, false},
		{"unknown method", func(r *Request) { r.Method = Method(99) }, false},
		{"negative method", func(r *Request) { r.Method = -1 }, false},
		{"unknown model", func(r *Request) { r.Model = sea.Model(7) }, false},
		{"exact with k-core", func(r *Request) { r.Method = MethodExact }, true},
		{"exact with k-truss", func(r *Request) { r.Method = MethodExact; r.Model = sea.KTruss }, false},
		{"negative k", func(r *Request) { r.K = -2 }, false},
		{"error bound too large", func(r *Request) { r.ErrorBound = 1.5 }, false},
		{"confidence too large", func(r *Request) { r.Confidence = 1 }, false},
		{"size bounds on sea", func(r *Request) { r.SizeLo, r.SizeHi = 4, 10 }, true},
		{"inverted size bounds", func(r *Request) { r.SizeLo, r.SizeHi = 10, 4 }, false},
		{"size_lo without size_hi", func(r *Request) { r.SizeLo = 12 }, false},
		{"size bounds on exact", func(r *Request) { r.Method = MethodExact; r.SizeLo, r.SizeHi = 4, 10 }, false},
		{"size bounds on vac", func(r *Request) { r.Method = MethodVAC; r.SizeLo, r.SizeHi = 4, 10 }, false},
		{"size bounds on structural", func(r *Request) { r.Method = MethodStructural; r.SizeHi = 10 }, false},
		{"negative max states", func(r *Request) { r.Method = MethodExact; r.MaxStates = -1 }, false},
		{"max states neutralized for sea", func(r *Request) { r.MaxStates = -1 }, true},
		{"bad lambda", func(r *Request) { r.Lambda = 2 }, false},
		{"bad max rounds", func(r *Request) { r.MaxRounds = -1 }, false},
		{"truss on every baseline", func(r *Request) { r.Method = MethodLocATC; r.Model = sea.KTruss }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := valid()
			tc.mutate(&r)
			err := r.Validate()
			if tc.ok && err != nil {
				t.Fatalf("want valid, got %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if !errors.Is(err, cserr.ErrInvalidRequest) {
					t.Fatalf("error %v does not wrap ErrInvalidRequest", err)
				}
			}
		})
	}
}

func TestMethodRegistry(t *testing.T) {
	// Every registered method parses from its own name and yields a working
	// searcher; the searcher reports the method it routes to.
	for _, m := range Methods() {
		parsed, err := ParseMethod(m.String())
		if err != nil || parsed != m {
			t.Fatalf("ParseMethod(%q) = %v, %v", m.String(), parsed, err)
		}
		s, err := NewSearcher(m)
		if err != nil {
			t.Fatalf("NewSearcher(%v): %v", m, err)
		}
		if s.Method() != m {
			t.Fatalf("searcher for %v reports %v", m, s.Method())
		}
	}
	if _, err := ParseMethod("bogus"); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("unknown name: %v", err)
	}
	if m, err := ParseMethod(""); err != nil || m != MethodSEA {
		t.Fatalf("empty name should select SEA, got %v, %v", m, err)
	}
	if _, err := NewSearcher(Method(42)); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("unknown method: %v", err)
	}
	if len(MethodNames()) != len(Methods()) {
		t.Fatal("MethodNames and Methods disagree")
	}
}

// TestEveryMethodAnswersOneRequest is the unified-API contract: a single
// Request runs through every registered searcher, each returning a
// community containing the query node with a comparable Delta.
func TestEveryMethodAnswersOneRequest(t *testing.T) {
	g := figure1(t)
	req := DefaultRequest(0)
	req.K = 3
	req.MaxStates = 50000
	for _, m := range Methods() {
		s, err := NewSearcher(m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Search(context.Background(), g, req)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if out.Method != m {
			t.Fatalf("%v: outcome reports method %v", m, out.Method)
		}
		found := false
		for _, v := range out.Community {
			found = found || v == req.Query
		}
		if !found {
			t.Fatalf("%v: community %v misses the query node", m, out.Community)
		}
		if out.Delta < 0 {
			t.Fatalf("%v: negative delta %v", m, out.Delta)
		}
		if m == MethodSEA && out.SEA == nil {
			t.Fatal("SEA outcome missing its trace")
		}
		if m == MethodExact && (out.Exact == nil || out.States == 0) {
			t.Fatalf("exact outcome missing its trace: %+v", out)
		}
	}
}

// TestRunMatchesSolver pins the adapter property: the unified path answers
// exactly what the method's own solver answers.
func TestRunMatchesSolver(t *testing.T) {
	g := figure1(t)
	m, err := attr.NewMetric(g, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	req := DefaultRequest(0)
	req.K = 3

	out, err := Run(context.Background(), g, m, nil, req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sea.SearchWithDistContext(context.Background(), g, m.QueryDist(0), 0, req.Options())
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out.Community) != fmt.Sprint(direct.Community) || out.Delta != direct.Delta || out.CI != direct.CI {
		t.Fatalf("unified %v δ=%v vs direct %v δ=%v", out.Community, out.Delta, direct.Community, direct.Delta)
	}
}

// TestOptionsProjection pins the Request → sea.Options projection: set
// fields carry over, unset ones resolve to the paper's defaults, and BLB,
// which a Request does not carry, is DefaultOptions' stats.DefaultBLB().
func TestOptionsProjection(t *testing.T) {
	want := sea.DefaultOptions()
	want.K = 7
	want.Model = sea.KTruss
	want.SizeLo, want.SizeHi = 8, 20
	want.NoRefine = true
	want.Seed = 99
	req := Request{Query: 3, K: 7, Model: sea.KTruss, SizeLo: 8, SizeHi: 20, NoRefine: true, Seed: 99}
	if got := req.Options(); got != want {
		t.Fatalf("Options projection:\n got %+v\nwant %+v", got, want)
	}
}

// TestRequestJSONRoundTrip pins the wire format: a Request survives JSON
// encode/decode bit for bit.
func TestRequestJSONRoundTrip(t *testing.T) {
	req := DefaultRequest(5)
	req.Method = MethodExact
	req.K = 6
	req.MaxStates = 1234
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.WithDefaults() != req.WithDefaults() {
		t.Fatalf("JSON round trip:\n got %+v\nwant %+v\nwire %s", back, req, blob)
	}
	// The truss model round-trips through its wire name.
	req.Method = MethodVAC
	req.Model = sea.KTruss
	blob, _ = json.Marshal(req)
	var back2 Request
	if err := json.Unmarshal(blob, &back2); err != nil {
		t.Fatal(err)
	}
	if back2.Model != sea.KTruss || back2.Method != MethodVAC {
		t.Fatalf("model/method lost: %s → %+v", blob, back2)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := figure1(t)
	req := DefaultRequest(9999) // out of range
	if _, err := Execute(context.Background(), g, req); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("out-of-range query: %v", err)
	}
	if _, err := Execute(context.Background(), nil, DefaultRequest(0)); !errors.Is(err, cserr.ErrInvalidRequest) {
		t.Fatalf("nil graph: %v", err)
	}
}

func TestStructuralAndNoCommunity(t *testing.T) {
	g := figure1(t)
	req := DefaultRequest(0)
	req.K = 99
	for _, m := range []Method{MethodSEA, MethodExact, MethodVAC, MethodStructural} {
		req.Method = m
		_, err := Execute(context.Background(), g, req)
		if !errors.Is(err, cserr.ErrNoCommunity) {
			t.Fatalf("%v with k=99: want ErrNoCommunity, got %v", m, err)
		}
	}
}

// TestExactBudgetTruncates pins the best-so-far contract of a state budget
// through the unified path, for both budgeted methods.
func TestExactBudgetTruncates(t *testing.T) {
	g := figure1(t)
	for _, m := range []Method{MethodExact, MethodEVAC} {
		req := DefaultRequest(0)
		req.K = 3
		req.Method = m
		req.MaxStates = 2
		out, err := Execute(context.Background(), g, req)
		if !errors.Is(err, cserr.ErrBudgetExhausted) {
			t.Fatalf("%v: want ErrBudgetExhausted, got %v", m, err)
		}
		if out == nil || !out.Truncated || len(out.Community) == 0 {
			t.Fatalf("%v: truncated outcome: %+v", m, out)
		}
	}
}
