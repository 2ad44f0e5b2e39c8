package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/store"
)

// makeEngine builds an engine over a generated analog.
func makeEngine(t testing.TB, name string, scale float64) *engine.Engine {
	t.Helper()
	d, err := dataset.Homogeneous(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(d.Graph, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// packFile writes an engine's snapshot to a temp file and returns the path.
func packFile(t testing.TB, eng *engine.Engine, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if _, err := eng.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// liveFixture packs a small graph into a snapshot and returns its path plus
// a journal path in the same temp dir.
func liveFixture(t *testing.T) (snapPath, journalPath string) {
	t.Helper()
	dir := t.TempDir()
	b := graph.NewBuilder(12, 1)
	for v := 0; v < 12; v++ {
		b.SetTextAttrs(graph.NodeID(v), fmt.Sprintf("tag%d", v%3))
		b.SetNumAttrs(graph.NodeID(v), float64(v)/12)
	}
	// Two squares plus a path between them.
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
		{6, 7}, {7, 8}, {8, 9}, {9, 6}, {6, 8},
		{3, 5}, {5, 6},
	} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	eng, err := engine.New(g, engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(dir, "g.snap")
	if _, err := eng.WriteSnapshotFile(snapPath); err != nil {
		t.Fatal(err)
	}
	return snapPath, filepath.Join(dir, "g.journal")
}

// replicatedFixture mounts the live fixture journaled as "g" and applies n
// mutation batches (one edge each, all distinct).
func replicatedFixture(t *testing.T, n int) *catalog.Catalog {
	t.Helper()
	snapPath, journalPath := liveFixture(t)
	c := catalog.New()
	t.Cleanup(func() { c.Close() })
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Mutate("g", []mutate.Delta{mutate.AddEdge(0, graph.NodeID(4+i))}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// newTestServer mounts two differently-sized analogs and returns the catalog
// and a test server over its HTTP handler.
func newTestServer(t *testing.T) (*catalog.Catalog, *httptest.Server) {
	t.Helper()
	c := catalog.New()
	if _, err := c.Mount("fb", makeEngine(t, "facebook", 0.2), engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount("gh", makeEngine(t, "github", 0.1), engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	t.Cleanup(srv.Close)
	return c, srv
}

func getMap(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func TestGraphsEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	body := getMap(t, srv.URL+"/graphs", http.StatusOK)
	if body["default"] != "fb" {
		t.Fatalf("default: %v", body["default"])
	}
	graphs, ok := body["graphs"].([]any)
	if !ok || len(graphs) != 2 {
		t.Fatalf("graphs: %v", body["graphs"])
	}
	first := graphs[0].(map[string]any)
	if first["name"] != "fb" || first["default"] != true {
		t.Fatalf("first graph: %v", first)
	}
	if first["nodes"].(float64) <= 0 || first["edges"].(float64) <= 0 {
		t.Fatalf("graph shape missing: %v", first)
	}
	if _, ok := first["stats"].(map[string]any); !ok {
		t.Fatalf("stats missing: %v", first)
	}

	resp, err := http.Post(srv.URL+"/graphs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /graphs: %d", resp.StatusCode)
	}
}

// TestPerDatasetRouting proves the "graph" wire field (and ?graph=) selects
// the dataset, on /search, /healthz and /stats, and that an unknown name is
// a 404.
func TestPerDatasetRouting(t *testing.T) {
	c, srv := newTestServer(t)
	fb, _ := c.Resolve("fb")
	gh, _ := c.Resolve("gh")

	hFB := getMap(t, srv.URL+"/healthz", http.StatusOK) // default = fb
	if int(hFB["nodes"].(float64)) != fb.Graph().NumNodes() {
		t.Fatalf("default healthz nodes: %v", hFB["nodes"])
	}
	hGH := getMap(t, srv.URL+"/healthz?graph=gh", http.StatusOK)
	if int(hGH["nodes"].(float64)) != gh.Graph().NumNodes() {
		t.Fatalf("gh healthz nodes: %v", hGH["nodes"])
	}
	getMap(t, srv.URL+"/healthz?graph=nope", http.StatusNotFound)

	// GET /search routes by ?graph=.
	getMap(t, srv.URL+"/search?q=0&k=2&method=structural&graph=gh", http.StatusOK)
	getMap(t, srv.URL+"/search?q=0&k=2&method=structural&graph=nope", http.StatusNotFound)

	// POST /search routes by the body's "graph" field; the per-engine query
	// counters prove which engine served it.
	before := gh.Stats().Queries
	reqBody := `{"q":0,"k":2,"method":"structural","graph":"gh"}`
	resp, err := http.Post(srv.URL+"/search", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /search graph=gh: %d", resp.StatusCode)
	}
	if gh.Stats().Queries != before+1 {
		t.Fatal("request did not route to the gh engine")
	}

	// /stats routes too.
	sGH := getMap(t, srv.URL+"/stats?graph=gh", http.StatusOK)
	if uint64(sGH["queries"].(float64)) != gh.Stats().Queries {
		t.Fatalf("stats not from gh engine: %v", sGH["queries"])
	}
}

func TestAdminReload(t *testing.T) {
	c, srv := newTestServer(t)
	eng := makeEngine(t, "facebook", 0.4)
	snapPath := packFile(t, eng, "v2.snap")

	// Swap the existing fb dataset to the new snapshot.
	body := fmt.Sprintf(`{"graph":"fb","path":%q}`, snapPath)
	resp, err := http.Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&reload); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %d (%v)", resp.StatusCode, reload)
	}
	if int(reload["nodes"].(float64)) != eng.Graph().NumNodes() {
		t.Fatalf("reload shape: %v", reload)
	}
	now, _ := c.Resolve("fb")
	if now.Graph().NumNodes() != eng.Graph().NumNodes() {
		t.Fatal("reload did not swap the engine")
	}

	// Mounting a brand-new name through the same endpoint.
	body = fmt.Sprintf(`{"graph":"fresh","path":%q}`, snapPath)
	resp, err = http.Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload new name: %d", resp.StatusCode)
	}
	if _, err := c.Resolve("fresh"); err != nil {
		t.Fatal("new dataset not mounted")
	}

	// A corrupt (torn) snapshot is rejected without disturbing the running
	// engine.
	corrupt := filepath.Join(t.TempDir(), "bad.snap")
	data, _ := os.ReadFile(snapPath)
	if err := os.WriteFile(corrupt, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	body = fmt.Sprintf(`{"graph":"fb","path":%q}`, corrupt)
	resp, err = http.Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: %d", resp.StatusCode)
	}
	still, _ := c.Resolve("fb")
	if still != now {
		t.Fatal("corrupt reload disturbed the engine")
	}

	// Missing fields are a 400.
	resp, err = http.Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty reload: %d", resp.StatusCode)
	}
}

// TestHotSwapUnderHTTPLoad drives concurrent /search requests while
// /admin/reload swaps the dataset between two snapshots: every response
// must be a coherent 200/404 from exactly one snapshot, and in-flight
// requests on the old engine complete while new ones hit the new snapshot.
func TestHotSwapUnderHTTPLoad(t *testing.T) {
	c, srv := newTestServer(t)
	small, _ := c.Resolve("fb")
	big := makeEngine(t, "facebook", 0.4)
	smallPath := packFile(t, small, "small.snap")
	bigPath := packFile(t, big, "big.snap")
	nSmall, nBig := small.Graph().NumNodes(), big.Graph().NumNodes()

	var workers, swapper sync.WaitGroup
	stop := make(chan struct{})
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		paths := [2]string{bigPath, smallPath}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"graph":"fb","path":%q}`, paths[i%2])
			resp, err := http.Post(srv.URL+"/admin/reload", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload during load: %d", resp.StatusCode)
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 30; i++ {
				resp, err := http.Get(srv.URL + "/search?q=0&k=2&method=structural")
				if err != nil {
					t.Error(err)
					return
				}
				var body struct {
					Community []int64 `json:"community"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("search during swap: %d", resp.StatusCode)
					return
				}
				// Each response comes from one coherent graph: members are
				// in-range for the larger, and if any exceeds the smaller
				// graph the whole community must have come from the big one.
				for _, v := range body.Community {
					if v >= int64(nBig) {
						t.Errorf("member %d outside both graphs (%d/%d)", v, nSmall, nBig)
						return
					}
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	swapper.Wait()
}

func TestMutateHTTP(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := catalog.New()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	defer srv.Close()

	post := func(path, body string) (*http.Response, string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.String()
	}

	// Before: no 3-core around node 4 (degree 0-ish).
	resp, body := post("/search", `{"q":4,"method":"structural","k":3}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-mutation search: %d %s", resp.StatusCode, body)
	}

	resp, body = post("/admin/mutate",
		`{"graph":"g","deltas":[{"op":"add_edge","u":4,"v":0},{"op":"add_edge","u":4,"v":1},{"op":"add_edge","u":4,"v":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: %d %s", resp.StatusCode, body)
	}
	var mres catalog.MutateResult
	if err := json.Unmarshal([]byte(body), &mres); err != nil {
		t.Fatal(err)
	}
	if mres.Applied != 3 || mres.Journaled != 1 {
		t.Fatalf("mutate response %+v", mres)
	}

	// After: the mutation is visible, zero swaps (no hot-swap happened).
	resp, body = post("/search", `{"q":4,"method":"structural","k":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation search: %d %s", resp.StatusCode, body)
	}
	for _, info := range c.Infos() {
		if info.Swaps != 0 || info.Version != 1 || info.JournalBatches != 1 {
			t.Fatalf("info %+v", info)
		}
	}

	resp, body = post("/admin/compact", `{"graph":"g"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	var cres catalog.CompactResult
	if err := json.Unmarshal([]byte(body), &cres); err != nil {
		t.Fatal(err)
	}
	if cres.BatchesFolded != 1 {
		t.Fatalf("compact response %+v", cres)
	}

	// Malformed and rejected batches.
	if resp, _ := post("/admin/mutate", `{"graph":"g","deltas":[]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty deltas: %d", resp.StatusCode)
	}
	if resp, _ := post("/admin/mutate", `{"graph":"g","deltas":[{"op":"add_edge","u":4,"v":4}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("self-loop: %d", resp.StatusCode)
	}
	if resp, _ := post("/admin/mutate", `{"graph":"nope","deltas":[{"op":"add_edge","u":1,"v":5}]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", resp.StatusCode)
	}
	if resp, _ := post("/admin/mutate", `{"graph":"g","deltas":[{"op":"warp","u":1}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op: %d", resp.StatusCode)
	}
	// A delta with "op" omitted must be rejected, not applied as add_edge.
	if resp, _ := post("/admin/mutate", `{"graph":"g","deltas":[{"u":1,"v":5}]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing op: %d", resp.StatusCode)
	}
}

// TestBodyLimits exercises the MaxBytesReader + trailing-garbage hardening
// across the admin and query decoders.
func TestBodyLimits(t *testing.T) {
	snapPath, journalPath := liveFixture(t)
	c := catalog.New()
	if _, _, err := c.MountPathJournaled("g", snapPath, journalPath, engine.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	defer srv.Close()

	huge := `{"graph":"g","deltas":[{"op":"add_node","text":["` +
		strings.Repeat("x", MaxBodyBytes+1024) + `"]}]}`
	for _, path := range []string{"/admin/mutate", "/admin/reload", "/search", "/batch", "/compare"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: %d, want 413", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/admin/mutate", "/admin/compact", "/admin/reload", "/search"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{"q":1} trailing-garbage`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s trailing garbage: %d, want 400", path, resp.StatusCode)
		}
	}
	// Concatenated JSON values are garbage too.
	resp, err := http.Post(srv.URL+"/search", "application/json", strings.NewReader(`{"q":1}{"q":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("concatenated bodies: %d, want 400", resp.StatusCode)
	}
}

// TestReplicationHTTPSurface drives the replication endpoints end to end
// over the catalog handler: snapshot fetch with cursor headers, journal
// tail, 410 on an unserviceable cursor, and the enriched /stats.
func TestReplicationHTTPSurface(t *testing.T) {
	c := replicatedFixture(t, 2)
	ts := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	defer ts.Close()

	resp, err := http.Get(ts.URL + ReplicatePath + "?graph=g")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicate: %d %s", resp.StatusCode, body)
	}
	if g, v, l := resp.Header.Get(HeaderGraph), resp.Header.Get(HeaderVersion), resp.Header.Get(HeaderLineage); g != "g" || v != "2" || l != "0" {
		t.Fatalf("replicate headers: graph=%q version=%q lineage=%q", g, v, l)
	}
	if _, err := store.Open(bytes.NewReader(body)); err != nil {
		t.Fatalf("replicate body is not a snapshot: %v", err)
	}

	resp, err = http.Get(ts.URL + JournalPath + "?graph=g&lineage=0&from=1")
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("journal: %d %s", resp.StatusCode, tail)
	}
	for _, want := range []string{`"version":2`, `"batches":[{"version":2`} {
		if !strings.Contains(string(tail), want) {
			t.Fatalf("journal body %s lacks %s", tail, want)
		}
	}

	resp, err = http.Get(ts.URL + JournalPath + "?graph=g&lineage=9&from=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unserviceable cursor: %d, want 410", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats?graph=g")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"graph":"g"`, `"journal_seq":2`, `"journal_batches":2`, `"lineage":0`} {
		if !strings.Contains(string(stats), want) {
			t.Fatalf("/stats body %s lacks %s", stats, want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	c := replicatedFixture(t, 1)
	ts := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE sea_queries_total counter",
		`sea_graph_version{graph="g"} 1`,
		`sea_journal_seq{graph="g"} 1`,
		`sea_mutations_total{graph="g"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics lacks %q in:\n%s", want, body)
		}
	}
}

// TestEveryStageIsServed: each row of engine.Stages appears in /stats under
// its key and in /metrics under its family and label, and /stats carries
// nothing the table lacks — so a new stage is one constant and one row.
func TestEveryStageIsServed(t *testing.T) {
	c := replicatedFixture(t, 1)
	ts := httptest.NewServer(New(CatalogRoutes(c, engine.DefaultConfig()), nil))
	defer ts.Close()

	var stats struct {
		Latency map[string]struct {
			Count *uint64 `json:"count"`
		} `json:"latency"`
	}
	getJSON(t, ts.URL+"/stats", http.StatusOK, &stats)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	if len(stats.Latency) != int(engine.NumStages) {
		t.Errorf("/stats latency has %d keys, the stage table %d rows", len(stats.Latency), engine.NumStages)
	}
	for st, d := range engine.Stages {
		if d.Key == "" || d.Family.Name == "" || d.Family.Help == "" || d.Label == "" || d.Value == "" {
			t.Fatalf("stage %d has an incomplete row: %+v", st, d)
		}
		if stats.Latency[d.Key].Count == nil {
			t.Errorf("/stats latency lacks %q", d.Key)
		}
		series := fmt.Sprintf("%s_count{graph=\"g\",%s=%q} ", d.Family.Name, d.Label, d.Value)
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics lacks %s", series)
		}
		// Exactly once: a family whose rows are not contiguous in the table
		// would render its header twice.
		if n := strings.Count(string(metrics), "# TYPE "+d.Family.Name+" histogram\n"); n != 1 {
			t.Errorf("/metrics declares histogram family %s %d times, want 1", d.Family.Name, n)
		}
	}
}
