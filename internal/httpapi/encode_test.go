package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/stats"
)

// The values a generated response draws from: the edges of encoding/json's
// float rule, and strings it escapes, replaces or leaves alone.
var (
	edgeFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.02, 0.95, 1e-7, 9.999999e-7, 1e-6, 1e20, 9.99e20, 1e21, -1e21, 1e-9, 1.5e-10, 1e100,
		5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 123456789.125}
	edgeStrings = []string{"", "sea", "k-core", "context deadline exceeded", `unknown method "x"`, `a\b`, "<script>&amp;</script>",
		"tab\there", "nul\x00bell\x07del\x7f", "line\nfeed\r\b\f", "héllo wörld", "社区搜索", "bad\xffutf8\xc3", "sep\u2028\u2029", "emoji 🙂"}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

func genFloat(rng *rand.Rand) float64 {
	if rng.Intn(3) > 0 {
		return pick(rng, edgeFloats)
	}
	return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(0x7ff))<<52) // any finite float
}

func genCommunity(rng *rand.Rand) []graph.NodeID {
	var n int
	switch rng.Intn(50) {
	case 0:
		n = 10000
	case 1, 2:
		return []graph.NodeID{}
	case 3, 4:
		return nil
	default:
		n = 1 + rng.Intn(40)
	}
	c := make([]graph.NodeID, n)
	for i := range c {
		c[i] = graph.NodeID(rng.Int31())
	}
	return c
}

// genItem is one answered request, as the engine hands it to a handler.
func genItem(rng *rand.Rand) engine.BatchItem {
	it := engine.BatchItem{
		Request: query.Request{Query: graph.NodeID(rng.Int31()), Method: query.Method(rng.Intn(9) - 1)},
		Metrics: engine.QueryMetrics{
			Query: rng.Int63() - rng.Int63(), K: rng.Intn(100) - 5, Model: pick(rng, edgeStrings), Method: pick(rng, edgeStrings),
			ResultHit: rng.Intn(2) == 0, Coalesced: rng.Intn(2) == 0, Shed: rng.Intn(2) == 0, IndexHit: rng.Intn(2) == 0,
			IndexNS: rng.Int63n(1e6), SearchNS: rng.Int63(), TotalNS: -rng.Int63n(5), Err: pick(rng, edgeStrings),
		},
	}
	if rng.Intn(3) == 0 {
		it.Err = errors.New(pick(rng, edgeStrings))
	}
	if rng.Intn(8) > 0 {
		it.Outcome = &query.Outcome{
			Community: genCommunity(rng), Delta: genFloat(rng),
			CI:        stats.CI{Center: genFloat(rng), MoE: genFloat(rng), Confidence: genFloat(rng)},
			Satisfied: rng.Intn(2) == 0, Truncated: rng.Intn(4) == 0,
		}
		if rng.Intn(3) == 0 {
			it.Outcome.States = rng.Int63n(1 << 40)
		}
	}
	return it
}

func finite(it *engine.BatchItem) bool {
	if it.Outcome == nil {
		return true
	}
	ci := toOutcomeJSON(it.Outcome).CI
	for _, f := range []float64{it.Outcome.Delta, ci.Center, ci.MoE, ci.Lo, ci.Hi, ci.Confidence} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// TestResponseEncodingMatchesEncodingJSON defines "byte-identical": for
// generated responses of all three endpoints, what the append functions
// write is what json.Marshal writes for the response structs, plus the
// newline json.Encoder ends a body with — and where json.Marshal refuses
// (CI.Lo/Hi can overflow to ±Inf), so do they.
func TestResponseEncodingMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	check := func(kind string, got []byte, ok bool, v any, wantOK bool) {
		t.Helper()
		want, err := json.Marshal(v)
		if (err == nil) != wantOK || ok != wantOK {
			t.Fatalf("%s: append ok=%v, json.Marshal err=%v, finite=%v", kind, ok, err, wantOK)
		}
		if ok && !bytes.Equal(got, append(want, '\n')) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s differs at byte %d:\nappend %.120q\njson   %.120q", kind, i, got[max(0, i-40):], want[max(0, i-40):])
		}
	}
	var buf []byte
	searches, refused := 0, 0
	for n := 0; n < 12000; n++ {
		items := make([]engine.BatchItem, 1+rng.Intn(3))
		allFinite := true
		for i := range items {
			items[i] = genItem(rng)
			ok := finite(&items[i])
			allFinite = allFinite && ok

			var sok bool
			buf, sok = appendSearch(buf[:0], &items[i])
			check("search", buf, sok, toResponse(&items[i]), ok)
			// The second encoding copies the Outcome's rendered part.
			buf, sok = appendSearch(buf[:0], &items[i])
			check("search again", buf, sok, toResponse(&items[i]), ok)
			searches++
		}
		if !allFinite {
			refused++
		}
		if n%7 == 0 {
			items = items[:0] // "items":[]
		}
		var ok bool
		buf, ok = appendBatch(buf[:0], items)
		check("batch", buf, ok, batchResponse{Items: toResponses(items)}, allFinite || len(items) == 0)
		q, best := rng.Int63()-rng.Int63(), pick(rng, edgeStrings)
		buf, ok = appendCompare(buf[:0], q, best, items)
		check("compare", buf, ok, compareResponse{Query: q, Best: best, Items: toResponses(items)}, allFinite || len(items) == 0)
	}
	if searches < 10000 || refused == 0 {
		t.Fatalf("generated %d items, %d batches holding a non-finite number", searches, refused)
	}
}

// TestNonFiniteDeltaAnswersAsEncodingJSONDid: an answer whose δ is NaN is
// not something the append functions write; the handler falls back to
// WriteJSON, whose encoder refuses after the status line — the status and
// an empty body, as before there was anything but WriteJSON.
func TestNonFiniteDeltaAnswersAsEncodingJSONDid(t *testing.T) {
	b := graph.NewBuilder(4, 1)
	for u := 0; u < 4; u++ {
		b.SetNumAttrs(graph.NodeID(u), []float64{0, 1, 2, math.NaN()}[u])
		for v := u + 1; v < 4; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	e, err := engine.New(b.MustBuild(), engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Query(context.Background(), query.Request{Query: 0, K: 2, Method: query.MethodStructural})
	if err != nil || !math.IsNaN(out.Delta) {
		t.Fatalf("the fixture should yield a NaN δ: %+v, %v", out, err)
	}
	h := New(EngineRoutes(e), nil)
	for path, body := range map[string]string{
		"/search":  `{"q":0,"k":2,"method":"structural"}`,
		"/batch":   `{"queries":[0,1],"k":2,"method":"structural"}`,
		"/compare": `{"q":0,"k":2,"methods":["structural"]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s with a NaN δ: %d %q, want 200 and an empty body", path, rec.Code, rec.Body)
		}
	}
}
