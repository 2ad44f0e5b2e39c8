package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/query"
)

// testDataset builds a small planted-community graph shared by the tests.
func testDataset(t testing.TB) *dataset.Generated {
	t.Helper()
	d, err := dataset.Generate(dataset.Spec{
		Name: "engine-test", Nodes: 400, MinCommunity: 12, MaxCommunity: 28,
		IntraDegree: 8, InterDegree: 0.8,
		TokensPerNode: 4, PoolSize: 5, Vocab: 80, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func testEngine(t testing.TB, cfg engine.Config) (*engine.Engine, *dataset.Generated, graph.NodeID) {
	t.Helper()
	d := testDataset(t)
	e, err := engine.New(d.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d, d.QueryNodes(1, 6, 3)[0]
}

func testServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	e, _, _ := testEngine(t, engine.DefaultConfig())
	srv := httptest.NewServer(New(EngineRoutes(e), nil))
	t.Cleanup(srv.Close)
	return srv, e
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url, body string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, e := testServer(t)
	var out map[string]any
	getJSON(t, srv.URL+"/healthz", http.StatusOK, &out)
	if out["status"] != "ok" {
		t.Fatalf("healthz: %v", out)
	}
	if int(out["nodes"].(float64)) != e.Graph().NumNodes() {
		t.Fatalf("healthz nodes: %v", out)
	}
}

func TestServerSearchPostAndGet(t *testing.T) {
	srv, e := testServer(t)
	q := int64(testDataset(t).QueryNodes(1, 6, 3)[0])

	var post searchResponse
	postJSON(t, srv.URL+"/search", fmt.Sprintf(`{"q":%d,"k":6}`, q), http.StatusOK, &post)
	if post.Size == 0 || len(post.Community) != post.Size || post.Err != "" {
		t.Fatalf("POST /search: %+v", post)
	}
	if post.Metrics.ResultHit {
		t.Fatal("first request cannot be a cache hit")
	}

	var get searchResponse
	getJSON(t, fmt.Sprintf("%s/search?q=%d&k=6", srv.URL, q), http.StatusOK, &get)
	if !get.Metrics.ResultHit {
		t.Fatalf("identical GET should hit the result cache: %+v", get.Metrics)
	}
	if fmt.Sprint(get.Community) != fmt.Sprint(post.Community) || get.Delta != post.Delta {
		t.Fatal("GET and POST answers differ")
	}
	if s := e.Stats(); s.SearchRuns != 1 {
		t.Fatalf("server ran %d searches, want 1", s.SearchRuns)
	}
}

func TestServerSearchErrors(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"missing q", `{"k":6}`, http.StatusBadRequest},
		{"bad model", `{"q":1,"model":"clique"}`, http.StatusBadRequest},
		{"bad options", `{"q":1,"e":7}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"out of range", `{"q":99999999}`, http.StatusBadRequest},
		{"int32 overflow", `{"q":4294967301}`, http.StatusBadRequest},
	} {
		var out map[string]any
		postJSON(t, srv.URL+"/search", tc.body, tc.status, &out)
	}
	// A node ID that truncates to a valid int32 must be rejected in batches too.
	var batchErr map[string]any
	postJSON(t, srv.URL+"/batch", `{"queries":[4294967301],"k":2}`, http.StatusBadRequest, &batchErr)
	// Rejection by the shared index surfaces as 404 with metrics attached.
	var out searchResponse
	postJSON(t, srv.URL+"/search", `{"q":0,"k":999}`, http.StatusNotFound, &out)
	if out.Err == "" || !out.Metrics.IndexHit {
		t.Fatalf("index reject response: %+v", out)
	}
}

// TestServerDeadlineMapsTo408: the engine's own RequestTimeout firing while
// the computation is held (an armed engine.search delay keeps the slot, as a
// slow search would) answers 408 with the deadline error in the body; so
// does a request whose client context is already cancelled.
func TestServerDeadlineMapsTo408(t *testing.T) {
	cfg := engine.DefaultConfig()
	cfg.RequestTimeout = time.Millisecond
	e, d, _ := testEngine(t, cfg)
	h := New(EngineRoutes(e), nil)
	nodes := d.QueryNodes(2, 6, 3)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	faults.Enable(23, faults.Spec{Site: "engine.search", Count: 2, Delay: 200 * time.Millisecond})
	defer faults.Disable()

	for _, tc := range []struct {
		name    string
		ctx     context.Context
		q       graph.NodeID
		wantErr string
	}{
		{"engine deadline", context.Background(), nodes[0], context.DeadlineExceeded.Error()},
		{"client cancel", cancelled, nodes[1], context.Canceled.Error()},
	} {
		req := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(fmt.Sprintf(`{"q":%d,"k":6}`, tc.q)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(tc.ctx))
		if rec.Code != http.StatusRequestTimeout {
			t.Fatalf("%s: status %d, want 408: %s", tc.name, rec.Code, rec.Body)
		}
		var out searchResponse
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil || !strings.Contains(out.Err, tc.wantErr) {
			t.Fatalf("%s: body error %q (%v), want %q", tc.name, out.Err, err, tc.wantErr)
		}
	}
}

func TestServerBatchAndStats(t *testing.T) {
	srv, _ := testServer(t)
	qs := testDataset(t).QueryNodes(3, 2, 9)
	body := fmt.Sprintf(`{"queries":[%d,%d,%d,%d],"k":2}`, qs[0], qs[1], qs[2], qs[0])

	var out batchResponse
	postJSON(t, srv.URL+"/batch", body, http.StatusOK, &out)
	if len(out.Items) != 4 {
		t.Fatalf("got %d items", len(out.Items))
	}
	for i, it := range out.Items {
		if it.Err != "" {
			t.Fatalf("item %d: %s", i, it.Err)
		}
	}
	if out.Items[3].Query != out.Items[0].Query {
		t.Fatal("batch order not preserved")
	}

	var stats engine.Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &stats)
	if stats.Queries != 4 || stats.SearchRuns != 3 {
		t.Fatalf("stats after batch: %+v", stats)
	}

	var errOut map[string]any
	postJSON(t, srv.URL+"/batch", `{"queries":[]}`, http.StatusBadRequest, &errOut)
}

func TestServerSearchWithMethod(t *testing.T) {
	srv, _ := testServer(t)
	q := int64(testDataset(t).QueryNodes(1, 6, 3)[0])

	var exact searchResponse
	postJSON(t, srv.URL+"/search", fmt.Sprintf(`{"q":%d,"k":6,"method":"exact","max_states":500000}`, q), http.StatusOK, &exact)
	if exact.Method != "exact" || exact.Size == 0 || exact.States == 0 {
		t.Fatalf("exact via HTTP: %+v", exact)
	}
	var structural searchResponse
	getJSON(t, fmt.Sprintf("%s/search?q=%d&k=6&method=structural", srv.URL, q), http.StatusOK, &structural)
	if structural.Method != "structural" || structural.Size < exact.Size {
		t.Fatalf("structural ⊇ exact expected: %+v vs %+v", structural, exact)
	}
	var bad map[string]any
	postJSON(t, srv.URL+"/search", fmt.Sprintf(`{"q":%d,"method":"bogus"}`, q), http.StatusBadRequest, &bad)
	// Method/model mismatch is a 400, not a silent fallback.
	postJSON(t, srv.URL+"/search", fmt.Sprintf(`{"q":%d,"method":"exact","model":"truss"}`, q), http.StatusBadRequest, &bad)
}

// TestServerCompare pins the /compare contract: one request replayed
// through several methods, one item per method, with Best naming the
// smallest δ among the successful runs.
func TestServerCompare(t *testing.T) {
	srv, e := testServer(t)
	q := int64(testDataset(t).QueryNodes(1, 6, 3)[0])

	var out compareResponse
	postJSON(t, srv.URL+"/compare",
		fmt.Sprintf(`{"q":%d,"k":6,"methods":["sea","exact","vac","structural"],"max_states":500000}`, q),
		http.StatusOK, &out)
	if len(out.Items) != 4 {
		t.Fatalf("got %d items", len(out.Items))
	}
	deltas := map[string]float64{}
	for i, it := range out.Items {
		if it.Err != "" {
			t.Fatalf("item %d (%s): %s", i, it.Method, it.Err)
		}
		if it.Size == 0 {
			t.Fatalf("item %d (%s) has no community", i, it.Method)
		}
		deltas[it.Method] = it.Delta
	}
	// The exact δ is the optimum: nothing beats it, and Best reflects that.
	for m, d := range deltas {
		if d < deltas["exact"] {
			t.Fatalf("method %s beat the exact optimum: %v < %v", m, d, deltas["exact"])
		}
	}
	if out.Best == "" || deltas[out.Best] != deltas["exact"] {
		t.Fatalf("best=%q deltas=%v", out.Best, deltas)
	}
	if s := e.Stats(); s.Queries < 4 {
		t.Fatalf("compare ran %d queries", s.Queries)
	}

	// GET form with comma-separated methods.
	var out2 compareResponse
	getJSON(t, fmt.Sprintf("%s/compare?q=%d&k=6&methods=sea,structural", srv.URL, q), http.StatusOK, &out2)
	if len(out2.Items) != 2 {
		t.Fatalf("GET compare: %+v", out2)
	}
	// max_states must reach the budgeted method, not be neutralized by the
	// wire request's default (SEA) canonical form: a 2-state budget forces a
	// truncated best-so-far exact answer.
	var tiny compareResponse
	postJSON(t, srv.URL+"/compare",
		fmt.Sprintf(`{"q":%d,"k":2,"methods":["exact"],"max_states":2}`, q), http.StatusOK, &tiny)
	if len(tiny.Items) != 1 || !tiny.Items[0].Truncated || tiny.Items[0].Err == "" || tiny.Items[0].Size == 0 {
		t.Fatalf("budgeted compare item: %+v", tiny.Items)
	}

	var errOut map[string]any
	postJSON(t, srv.URL+"/compare", fmt.Sprintf(`{"q":%d,"k":6}`, q), http.StatusBadRequest, &errOut)
	postJSON(t, srv.URL+"/compare", fmt.Sprintf(`{"q":%d,"methods":["bogus"]}`, q), http.StatusBadRequest, &errOut)
	// An empty entry (stray trailing comma) is malformed, not implicit SEA.
	getJSON(t, fmt.Sprintf("%s/compare?q=%d&k=6&methods=sea,exact,", srv.URL, q), http.StatusBadRequest, &errOut)
}

// TestRequestRoundTripsThroughHTTP is the acceptance criterion's HTTP leg:
// the same Request serialized as JSON and answered over HTTP returns the
// identical community the library returns, field for field through the wire.
func TestRequestRoundTripsThroughHTTP(t *testing.T) {
	srv, e := testServer(t)
	d := testDataset(t)
	q := d.QueryNodes(1, 6, 3)[0]

	req := query.DefaultRequest(q)
	req.K = 6
	req.Method = query.MethodSEA

	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var viaHTTP searchResponse
	postJSON(t, srv.URL+"/search", string(blob), http.StatusOK, &viaHTTP)

	direct, err := query.Run(context.Background(), d.Graph, e.Metric(), req)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(viaHTTP.Community) != fmt.Sprint(direct.Community) || viaHTTP.Delta != direct.Delta {
		t.Fatalf("HTTP %v δ=%v vs library %v δ=%v",
			viaHTTP.Community, viaHTTP.Delta, direct.Community, direct.Delta)
	}
	if viaHTTP.Method != req.Method.String() {
		t.Fatalf("method lost on the wire: %+v", viaHTTP)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	// The engine echoes but never generates request IDs (that is the
	// router's job), so send one and expect it on the span.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/search?q=1&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /search: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "trace-me" {
		t.Fatalf("response request id %q", got)
	}

	var trace struct {
		Spans []engine.Span `json:"spans"`
	}
	getJSON(t, srv.URL+"/debug/trace?n=5", http.StatusOK, &trace)
	if len(trace.Spans) == 0 {
		t.Fatal("no spans after a served query")
	}
	sp := trace.Spans[0]
	if sp.RequestID != "trace-me" {
		t.Fatalf("span request id %q, want the propagated header", sp.RequestID)
	}
	if sp.Query != 1 || sp.TotalNS <= 0 {
		t.Fatalf("span: %+v", sp)
	}

	bad, err := http.Get(srv.URL + "/debug/trace?n=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n: status %d, want 400", bad.StatusCode)
	}
}

func TestStatsIncludesLatency(t *testing.T) {
	srv, _ := testServer(t)
	var out searchResponse
	getJSON(t, srv.URL+"/search?q=1&k=2", http.StatusOK, &out)

	var stats struct {
		Queries int64 `json:"queries"`
		Latency struct {
			TotalMiss struct {
				Count uint64  `json:"count"`
				P50US float64 `json:"p50_us"`
			} `json:"total_miss"`
		} `json:"latency"`
	}
	getJSON(t, srv.URL+"/stats", http.StatusOK, &stats)
	if stats.Latency.TotalMiss.Count == 0 {
		t.Fatalf("stats latency missing the served query: %+v", stats)
	}
	if stats.Latency.TotalMiss.P50US <= 0 {
		t.Fatalf("p50 of an executed query is %v", stats.Latency.TotalMiss.P50US)
	}
}

// TestOverloadedHTTPContract pins the wire shape of a shed: 429 with a
// Retry-After hint.
func TestOverloadedHTTPContract(t *testing.T) {
	if got := StatusFor(cserr.ErrOverloaded); got != http.StatusTooManyRequests {
		t.Fatalf("StatusFor(ErrOverloaded) = %d, want 429", got)
	}
	rec := httptest.NewRecorder()
	WriteError(rec, StatusFor(cserr.ErrOverloaded), cserr.ErrOverloaded)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After hint")
	}
}
