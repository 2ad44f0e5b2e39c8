package catalog

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
)

// newTestServer mounts two differently-sized analogs and returns the catalog
// and a test server over its HTTP handler.
func newTestServer(t *testing.T) (*Catalog, *httptest.Server) {
	t.Helper()
	c := New()
	if _, err := c.Mount("fb", makeEngine(t, "facebook", 0.2), engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mount("gh", makeEngine(t, "github", 0.1), engine.DefaultConfig(), "test"); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(c, engine.DefaultConfig()))
	t.Cleanup(srv.Close)
	return c, srv
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
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
	body := getJSON(t, srv.URL+"/graphs", http.StatusOK)
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

	hFB := getJSON(t, srv.URL+"/healthz", http.StatusOK) // default = fb
	if int(hFB["nodes"].(float64)) != fb.Graph().NumNodes() {
		t.Fatalf("default healthz nodes: %v", hFB["nodes"])
	}
	hGH := getJSON(t, srv.URL+"/healthz?graph=gh", http.StatusOK)
	if int(hGH["nodes"].(float64)) != gh.Graph().NumNodes() {
		t.Fatalf("gh healthz nodes: %v", hGH["nodes"])
	}
	getJSON(t, srv.URL+"/healthz?graph=nope", http.StatusNotFound)

	// GET /search routes by ?graph=.
	getJSON(t, srv.URL+"/search?q=0&k=2&method=structural&graph=gh", http.StatusOK)
	getJSON(t, srv.URL+"/search?q=0&k=2&method=structural&graph=nope", http.StatusNotFound)

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
	sGH := getJSON(t, srv.URL+"/stats?graph=gh", http.StatusOK)
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
