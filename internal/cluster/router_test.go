package cluster

import (
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/httpapi"
	"repro/internal/mutate"
	"repro/internal/obs"
)

// testCluster is a primary, two live followers (with running sync loops),
// and a router fronting all three.
type testCluster struct {
	pcat   *catalog.Catalog
	pts    *httptest.Server
	fcats  []*catalog.Catalog
	fols   []*Follower
	ftss   []*httptest.Server
	router *Router
	rts    *httptest.Server
}

func newTestCluster(t *testing.T, cfg RouterConfig) *testCluster {
	t.Helper()
	tc := &testCluster{}
	tc.pcat, tc.pts = newPrimary(t)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := 0; i < 2; i++ {
		cat, fol, fts := newFollowerNode(t, tc.pts.URL)
		tc.fcats = append(tc.fcats, cat)
		tc.fols = append(tc.fols, fol)
		tc.ftss = append(tc.ftss, fts)
		go fol.Run(ctx)
	}
	cfg.Members = []string{tc.pts.URL, tc.ftss[0].URL, tc.ftss[1].URL}
	router, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	tc.router = router
	tc.rts = httptest.NewServer(router)
	t.Cleanup(tc.rts.Close)
	return tc
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func postJSON(t *testing.T, url, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var decoded map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode, decoded, resp.Header
}

// TestRouterBatchAndCompareOneRead sends /batch and /compare through the
// router: each is answered whole by one read-set member, named in
// X-Sea-Served-By, with the batch's items in request order and the
// compare's in method order with the node's best. Consecutive batches
// rotate over the read set, and a GET /batch gets the member's 405.
func TestRouterBatchAndCompareOneRead(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 3,
		ProbeEvery:        20 * time.Millisecond,
		ShardTimeout:      5 * time.Second,
	})
	members := map[string]bool{tc.pts.URL: true, tc.ftss[0].URL: true, tc.ftss[1].URL: true}

	queries := []int{0, 1, 2, 6, 7, 8}
	var served []string
	for range 2 {
		status, body, hdr := postJSON(t, tc.rts.URL+"/batch",
			`{"graph":"g","queries":[0,1,2,6,7,8],"method":"structural","k":2}`)
		if status != http.StatusOK {
			t.Fatalf("/batch: %d %v", status, body)
		}
		items, _ := body["items"].([]any)
		if len(items) != len(queries) {
			t.Fatalf("/batch items: %d, want %d", len(items), len(queries))
		}
		for i, it := range items {
			item := it.(map[string]any)
			if q, _ := item["query"].(float64); int(q) != queries[i] {
				t.Fatalf("item %d out of order: %v", i, item)
			}
			if errStr, _ := item["err"].(string); errStr != "" {
				t.Fatalf("item %d errored: %v", i, item)
			}
			if _, ok := item["served_by"]; ok {
				t.Fatalf("item %d carries served_by: %v", i, item)
			}
		}
		sb := hdr.Get(ServedByHeader)
		if !members[sb] {
			t.Fatalf("/batch served by %q, not a read-set member", sb)
		}
		served = append(served, sb)
	}
	if served[0] == served[1] {
		t.Fatalf("two batches in a row both served by %s, want the read set rotated", served[0])
	}

	resp, err := http.Get(tc.rts.URL + "/batch?graph=g&queries=0&k=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET /batch: %d, Allow %q; want 405, Allow POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	status, body, _ := postJSON(t, tc.rts.URL+"/compare",
		`{"graph":"g","q":0,"methods":["structural","sea"],"k":2,"seed":42}`)
	if status != http.StatusOK {
		t.Fatalf("/compare: %d %v", status, body)
	}
	items, _ := body["items"].([]any)
	if len(items) != 2 {
		t.Fatalf("/compare items: %d, want 2", len(items))
	}
	for i, want := range []string{"structural", "sea"} {
		item := items[i].(map[string]any)
		if m, _ := item["method"].(string); m != want {
			t.Fatalf("/compare item %d is %q, want %q", i, m, want)
		}
	}
	if best, _ := body["best"].(string); best == "" {
		t.Fatalf("/compare lost best: %v", body)
	}
	if q, _ := body["query"].(float64); int(q) != 0 {
		t.Fatalf("/compare query = %v, want 0", body["query"])
	}
}

// TestRouterWriteForwardingAndCatchUp mutates through the router and checks
// the write lands on the primary and replicates to the followers, after
// which a /search is served by a follower too.
func TestRouterWriteForwardingAndCatchUp(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 3,
		ProbeEvery:        20 * time.Millisecond,
		ShardTimeout:      5 * time.Second,
	})

	status, body, hdr := postJSON(t, tc.rts.URL+"/admin/mutate",
		`{"graph":"g","deltas":[{"op":"add_edge","u":0,"v":10}]}`)
	if status != http.StatusOK {
		t.Fatalf("mutate via router: %d %v", status, body)
	}
	if sb := hdr.Get(ServedByHeader); sb != tc.pts.URL {
		t.Fatalf("mutate served by %q, want primary %q", sb, tc.pts.URL)
	}
	if v, _ := body["version"].(float64); int(v) != 1 {
		t.Fatalf("mutate result: %v", body)
	}

	waitFor(t, 5*time.Second, "followers to catch up", func() bool {
		for _, fol := range tc.fols {
			for _, st := range fol.Status() {
				if st.Version != 1 || st.Lag != 0 {
					return false
				}
			}
		}
		return true
	})

	// Hit /search until a follower serves it (round-robin over the read
	// set makes that deterministic within a few tries).
	followers := map[string]bool{tc.ftss[0].URL: true, tc.ftss[1].URL: true}
	served := map[string]bool{}
	for i := 0; i < 6; i++ {
		req, _ := http.NewRequest(http.MethodGet, tc.rts.URL+"/search?graph=g&q=0&method=structural&k=2", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/search try %d: %d", i, resp.StatusCode)
		}
		served[resp.Header.Get(ServedByHeader)] = true
	}
	anyFollower := false
	for sb := range served {
		if followers[sb] {
			anyFollower = true
		}
	}
	if !anyFollower {
		t.Fatalf("no follower served /search; served_by = %v", served)
	}
}

// TestRouterPromotesOnPrimaryDeath kills the primary and checks the router
// promotes the most-caught-up follower, keeps serving reads, and accepts
// writes again.
func TestRouterPromotesOnPrimaryDeath(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 3,
		ProbeEvery:        20 * time.Millisecond,
		FailAfter:         2,
		ShardTimeout:      time.Second,
	})

	// Put some replicated state in so the candidates have real cursors.
	if _, err := tc.pcat.Mutate("g", []mutate.Delta{mutate.AddEdge(0, 10)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "followers to catch up", func() bool {
		for _, fol := range tc.fols {
			for _, st := range fol.Status() {
				if st.Version != 1 {
					return false
				}
			}
		}
		return true
	})

	oldPrimary := tc.router.Primary()
	tc.pts.CloseClientConnections()
	tc.pts.Close()
	waitFor(t, 10*time.Second, "router to promote a follower", func() bool {
		return tc.router.Primary() != oldPrimary
	})
	newPrimary := tc.router.Primary()
	if newPrimary != tc.ftss[0].URL && newPrimary != tc.ftss[1].URL {
		t.Fatalf("promoted %q, not a follower", newPrimary)
	}

	// Reads survive the failover…
	status, body, _ := postJSON(t, tc.rts.URL+"/batch",
		`{"graph":"g","queries":[0,6],"method":"structural","k":2}`)
	if status != http.StatusOK {
		t.Fatalf("post-failover /batch: %d %v", status, body)
	}
	// …and writes land on the new primary.
	waitFor(t, 5*time.Second, "new primary to accept writes", func() bool {
		st, _, _ := postJSON(t, tc.rts.URL+"/admin/mutate",
			`{"graph":"g","deltas":[{"op":"add_edge","u":1,"v":8}]}`)
		return st == http.StatusOK
	})

	// /healthz shows the new primary and a dead member.
	resp, err := http.Get(tc.rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string `json:"status"`
		Primary string `json:"primary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Primary != newPrimary {
		t.Fatalf("post-failover health: %+v", health)
	}
}

// TestRouterRequestID checks the router's correlation behavior: absent IDs
// are generated, present ones flow through to the member and back, and
// router-origin errors carry the ID in the body.
func TestRouterRequestID(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 2,
		ProbeEvery:        time.Hour,
		ShardTimeout:      2 * time.Second,
	})

	// Generated when absent.
	resp, err := http.Get(tc.rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(httpapi.RequestIDHeader) == "" {
		t.Fatal("router did not generate a request id")
	}

	// Propagated end to end through a proxied request.
	req, _ := http.NewRequest(http.MethodGet, tc.rts.URL+"/stats?graph=g", nil)
	req.Header.Set(httpapi.RequestIDHeader, "corr-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(httpapi.RequestIDHeader); got != "corr-42" {
		t.Fatalf("proxied request id %q, want corr-42", got)
	}

	// Included in router-origin error bodies: an overlong body is refused
	// by the router before any member sees it.
	head := `{"graph":"g","queries":[0],"pad":"`
	long := head + strings.Repeat("x", httpapi.MaxBodyBytes-len(head)) + `"}`
	status, body, hdr := postJSON(t, tc.rts.URL+"/batch", long)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("overlong /batch: %d", status)
	}
	id := hdr.Get(httpapi.RequestIDHeader)
	if id == "" || body["request_id"] != id {
		t.Fatalf("error body request_id %v, header %q", body["request_id"], id)
	}
}

// TestMetricsExpositionStrict runs the full /metrics output of the router
// AND of a cluster node (primary, behind NewNodeHandler) through the
// parser-strictness checker, with the latency histograms populated by real
// read and forwarded traffic. PR 7's handlers emitted bare series
// without HELP/TYPE and %q-escaped labels; this pins the repaired output.
func TestMetricsExpositionStrict(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 3,
		ProbeEvery:        20 * time.Millisecond,
		ShardTimeout:      5 * time.Second,
	})

	// Populate: two single-replica reads (/batch, /search).
	if status, body, _ := postJSON(t, tc.rts.URL+"/batch",
		`{"graph":"g","queries":[0,1,2],"method":"structural","k":2}`); status != http.StatusOK {
		t.Fatalf("/batch: %d %v", status, body)
	}
	if status, body, _ := postJSON(t, tc.rts.URL+"/search",
		`{"graph":"g","q":0,"method":"structural","k":2}`); status != http.StatusOK {
		t.Fatalf("/search: %d %v", status, body)
	}
	scrape := func(base string) []byte {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/metrics: %d", base, resp.StatusCode)
		}
		return body
	}

	router := scrape(tc.rts.URL)
	if err := obs.CheckExposition(router); err != nil {
		t.Fatalf("router /metrics fails strict parsing: %v\nbody:\n%s", err, router)
	}
	for _, want := range []string{
		"# TYPE searouter_member_up gauge",
		"# TYPE searouter_shard_latency_seconds histogram",
		`searouter_shard_latency_seconds_count{path="/batch"} 1`,
		`searouter_shard_latency_seconds_count{path="/search"} 1`,
	} {
		if !strings.Contains(string(router), want) {
			t.Fatalf("router /metrics lacks %q in:\n%s", want, router)
		}
	}

	node := scrape(tc.pts.URL)
	if err := obs.CheckExposition(node); err != nil {
		t.Fatalf("node /metrics fails strict parsing: %v\nbody:\n%s", err, node)
	}
	for _, want := range []string{
		"# TYPE sea_query_latency_seconds histogram",
		`sea_query_stage_latency_seconds_count{graph="g",stage="search"}`,
	} {
		if !strings.Contains(string(node), want) {
			t.Fatalf("node /metrics lacks %q in:\n%s", want, node)
		}
	}

	// The router's trace ring saw the batch and the search.
	resp, err := http.Get(tc.rts.URL + "/debug/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		Spans []RouterSpan `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for _, s := range trace.Spans {
		paths[s.Path] = true
		if s.RequestID == "" {
			t.Fatalf("router span lacks request id: %+v", s)
		}
	}
	if !paths["/batch"] || !paths["/search"] {
		t.Fatalf("trace ring lacks /batch or /search spans: %v", paths)
	}
}

// TestRouterRejectsOverlongBodies: a body one byte over the cap answers 413
// with the request id on every body-reading route, as a node does, instead
// of being cut to the cap and misreported as malformed.
func TestRouterRejectsOverlongBodies(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{ProbeEvery: 20 * time.Millisecond, ShardTimeout: 5 * time.Second})
	head := `{"graph":"g","q":0,"k":2,"queries":[0],"methods":["structural"],"pad":"`
	body := head + strings.Repeat("x", httpapi.MaxBodyBytes+1-len(head)-2) + `"}`
	if len(body) != httpapi.MaxBodyBytes+1 {
		t.Fatalf("body is %d bytes", len(body))
	}
	for _, path := range []string{"/search", "/batch", "/compare"} {
		status, got, hdr := postJSON(t, tc.rts.URL+path, body)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %v, want 413", path, status, got)
			continue
		}
		if id := hdr.Get(httpapi.RequestIDHeader); id == "" || got["request_id"] != id {
			t.Errorf("%s: request_id %v, header %q", path, got["request_id"], id)
		}
	}
}

// TestRouterGetCompare: a GET /compare is a single read, served by one
// replica like a GET /search, through the same path as a POST /compare.
func TestRouterGetCompare(t *testing.T) {
	tc := newTestCluster(t, RouterConfig{
		ReplicationFactor: 3,
		ProbeEvery:        20 * time.Millisecond,
		ShardTimeout:      5 * time.Second,
	})
	resp, err := http.Get(tc.rts.URL + "/compare?graph=g&q=0&k=2&methods=structural,sea&seed=42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Items []map[string]any `json:"items"`
		Best  string           `json:"best"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /compare: %d %+v", resp.StatusCode, body)
	}
	if len(body.Items) != 2 || body.Best == "" {
		t.Fatalf("GET /compare: %d items, best %q", len(body.Items), body.Best)
	}
	served := resp.Header.Get(ServedByHeader)
	if served == "" {
		t.Fatalf("GET /compare lacks %s", ServedByHeader)
	}
	spans := tc.router.Trace(1)
	if len(spans) != 1 || spans[0].Path != "/compare" || spans[0].Status != http.StatusOK || spans[0].ServedBy != served {
		t.Fatalf("router span %+v, want path /compare, status 200, served by %s", spans, served)
	}
	if n := tc.router.shardLat["/compare"].Snapshot().Count; n != 1 {
		t.Fatalf("shardLat[/compare] holds %d observations, want 1", n)
	}
}
