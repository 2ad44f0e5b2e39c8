package sea

// Wire golden tests: the serving surface's observable shape — /metrics
// family and series order, /stats key order, and the status, headers and
// body of a fixed request script — pinned against testdata recorded at the
// commit BEFORE the PR 14 serving-layer refactor (route table, stage table,
// one family writer). Volatile values (timings, temp paths, ports, sample
// values) are normalised; everything else is compared byte for byte.
//
// Re-record with: go test -run TestWireGolden -update-golden .

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faults"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire/*.golden from the current output")

// checkGolden compares got against testdata/wire/<name>.golden (or rewrites
// the file under -update-golden).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// goldenNode mounts the Figure-1 graph journaled under "fig" (heap-resident,
// so the record does not depend on the platform's mmap support) and returns
// the catalog and the directory holding its files.
func goldenNode(t *testing.T) (*Catalog, string) {
	t.Helper()
	g, _ := buildFigure1(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "fig.snap")
	if _, err := PackSnapshotFileOpts(g, snap, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	t.Cleanup(func() { c.Close() })
	c.SetMmap(false)
	if _, _, err := c.MountPathJournaled("fig", snap, filepath.Join(dir, "fig.journal"), DefaultEngineConfig()); err != nil {
		t.Fatal(err)
	}
	return c, dir
}

// serve runs one request through h in process and returns the recorder.
func serve(h http.Handler, method, target, body string, header ...string) *httptest.ResponseRecorder {
	var req *http.Request
	if body == "" && method != http.MethodPost {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

var (
	timingRe = regexp.MustCompile(`"(\w+_(?:ns|us|ms))":[-+0-9.eE]+`)
	memberRe = regexp.MustCompile(`http://127\.0\.0\.1:\d+`)
	leRe     = regexp.MustCompile(`le="[^"]*"`)
)

// goldenHeaders are the response headers the script records, every value
// of each (so a header stamped twice shows up as two values).
var goldenHeaders = []string{
	"Content-Type", "Allow", "Retry-After", "X-Request-ID",
	"X-Sea-Graph", "X-Sea-Version", "X-Sea-Lineage",
}

// transcript renders one scripted exchange: request line, status, recorded
// headers, and the JSON body with timings zeroed and dir replaced.
func transcript(rec *httptest.ResponseRecorder, method, target, body, dir string) string {
	var b strings.Builder
	if len(body) > 200 {
		body = fmt.Sprintf("%s…(%d bytes)", body[:40], len(body))
	}
	fmt.Fprintf(&b, ">>> %s %s %s\n", method, strings.ReplaceAll(target, dir, "$DIR"), strings.ReplaceAll(body, dir, "$DIR"))
	fmt.Fprintf(&b, "status: %d\n", rec.Code)
	for _, name := range goldenHeaders {
		for _, v := range rec.Header().Values(name) {
			fmt.Fprintf(&b, "%s: %s\n", name, v)
		}
	}
	out := rec.Body.String()
	if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		out = timingRe.ReplaceAllString(out, `"$1":0`)
		out = strings.ReplaceAll(out, dir, "$DIR")
	} else {
		out = fmt.Sprintf("(%d bytes)\n", rec.Body.Len())
	}
	b.WriteString(out)
	if !strings.HasSuffix(out, "\n") {
		b.WriteByte('\n')
	}
	return b.String()
}

// TestWireGoldenScript drives a fixed request script through
// NewClusterNodeHandler — as a primary, then as an unpromoted follower — and
// compares every exchange with the parent-recorded transcript.
func TestWireGoldenScript(t *testing.T) {
	cat, dir := goldenNode(t)
	cfg := DefaultEngineConfig()
	primary := NewClusterNodeHandler(cat, cfg, nil)
	huge := `{"q":0,"pad":"` + strings.Repeat("x", 1<<20+1024) + `"}`

	var b strings.Builder
	run := func(h http.Handler, method, target, body string, header ...string) {
		b.WriteString(transcript(serve(h, method, target, body, header...), method, target, body, dir))
	}

	// Reads, with and without a correlation id (echoed once, never made up).
	run(primary, "GET", "/healthz", "")
	run(primary, "GET", "/healthz?graph=fig", "", "X-Request-ID", "golden-health")
	run(primary, "POST", "/search", `{"q":0,"k":3}`, "X-Request-ID", "golden-1")
	run(primary, "GET", "/search?q=0&k=3", "")
	run(primary, "GET", "/search?q=5&k=3&method=structural&graph=fig", "")
	run(primary, "POST", "/search", `{"q":0,"k":3,"method":"exact","max_states":100000}`)
	run(primary, "POST", "/search", `{"q":0,"k":99}`)
	run(primary, "GET", "/debug/trace?n=2", "") // before the first parallel endpoint: span order is arrival order
	run(primary, "POST", "/batch", `{"queries":[1,2,3],"k":3}`, "X-Request-ID", "golden-batch")
	run(primary, "GET", "/compare?q=0&k=3&methods=sea,exact,structural&max_states=100000", "")
	run(primary, "POST", "/compare", `{"q":0,"k":3,"methods":["sea","exact"],"max_states":100000}`)
	run(primary, "GET", "/graphs", "")

	// Unknown graph, malformed requests, an oversized body.
	run(primary, "GET", "/search?q=0&graph=nope", "")
	run(primary, "POST", "/search", `{"q":0,"graph":"nope"}`, "X-Request-ID", "golden-404")
	run(primary, "GET", "/healthz?graph=nope", "")
	run(primary, "GET", "/stats?graph=nope", "")
	run(primary, "GET", "/debug/trace?graph=nope", "")
	run(primary, "POST", "/search", `{`)
	run(primary, "POST", "/search", `{"k":3}`)
	run(primary, "POST", "/search", `{"q":0} trailing`)
	run(primary, "POST", "/search", `{"q":0,"method":"bogus"}`)
	run(primary, "POST", "/search", `{"q":4294967301}`)
	run(primary, "GET", "/search?q=abc", "")
	run(primary, "GET", "/search?q=0&k=x", "")
	run(primary, "POST", "/batch", `{"queries":[]}`)
	run(primary, "POST", "/batch", `{"queries":[4294967301],"k":2}`)
	run(primary, "POST", "/compare", `{"q":0,"k":3}`)
	run(primary, "GET", "/compare?q=0&methods=sea,,exact", "")
	run(primary, "GET", "/compare?methods=sea", "")
	run(primary, "GET", "/debug/trace?n=notanumber", "")
	run(primary, "POST", "/search", huge, "X-Request-ID", "golden-413")
	run(primary, "POST", "/admin/mutate", huge)

	// Writes and replication on the primary.
	run(primary, "POST", "/admin/mutate", `{"deltas":[{"op":"add_edge","u":10,"v":0}]}`, "X-Request-ID", "golden-mutate")
	run(primary, "POST", "/admin/mutate", `{"graph":"fig","deltas":[{"op":"set_attr","u":11,"text":["movie","drama"]},{"op":"add_node","text":["movie"],"num":[5,100]}]}`)
	run(primary, "POST", "/admin/mutate", `{"deltas":[]}`)
	run(primary, "POST", "/admin/mutate", `{"deltas":[{"op":"add_edge","u":0,"v":0}]}`)
	run(primary, "POST", "/admin/mutate", `{"graph":"nope","deltas":[{"op":"add_edge","u":1,"v":5}]}`)
	run(primary, "GET", "/search?q=0&k=3", "")
	run(primary, "GET", "/admin/replication", "")
	run(primary, "GET", "/admin/journal?graph=fig&lineage=0&from=1", "")
	run(primary, "GET", "/admin/journal?graph=fig&lineage=0&from=2", "")
	run(primary, "GET", "/admin/journal?graph=fig&lineage=9&from=0", "")
	run(primary, "GET", "/admin/journal?graph=fig&lineage=x", "")
	run(primary, "GET", "/admin/journal?graph=nope", "")
	run(primary, "GET", "/admin/replicate?graph=fig", "")
	run(primary, "GET", "/admin/replicate?graph=nope", "")
	run(primary, "POST", "/admin/compact", `{"graph":"fig"}`)
	run(primary, "POST", "/admin/compact", `{"graph":"nope"}`)
	run(primary, "GET", "/admin/journal?graph=fig&lineage=0&from=0", "")
	run(primary, "POST", "/admin/reload", `{"graph":"fig","path":"`+filepath.Join(dir, "fig.snap")+`"}`)
	run(primary, "POST", "/admin/reload", `{"graph":"fig"}`)
	run(primary, "POST", "/admin/reload", `{"graph":"fig","path":"`+filepath.Join(dir, "missing.snap")+`"}`)
	run(primary, "POST", "/admin/promote", ``)
	run(primary, "POST", "/admin/follow", `{"primary":"http://elsewhere"}`)
	run(primary, "GET", "/admin/replication", "", "X-Request-ID", "golden-repl")

	// A batch that applies but fails to journal answers 500 with the full
	// result; the dataset then fails closed until compacted.
	faults.Enable(1, faults.Spec{Site: "journal.fsync", Count: 1, Err: "eio"})
	run(primary, "POST", "/admin/mutate", `{"deltas":[{"op":"set_attr","u":0,"text":["torn"]}]}`)
	faults.Disable()
	run(primary, "POST", "/admin/mutate", `{"deltas":[{"op":"set_attr","u":0,"text":["after"]}]}`)
	run(primary, "GET", "/admin/replication", "")

	// An unpromoted follower fences the write paths and nothing else.
	fcat := NewCatalog()
	t.Cleanup(func() { fcat.Close() })
	fol := NewClusterFollower(fcat, "http://primary.invalid:7070", t.TempDir(), cfg, 0)
	follower := NewClusterNodeHandler(fcat, cfg, fol)
	run(follower, "POST", "/admin/mutate", `{"deltas":[{"op":"add_edge","u":1,"v":5}]}`, "X-Request-ID", "golden-fenced")
	run(follower, "POST", "/admin/compact", `{}`)
	run(follower, "POST", "/admin/reload", `{"graph":"fig","path":"x"}`)
	run(follower, "GET", "/admin/replication", "")
	run(follower, "GET", "/graphs", "")
	run(follower, "GET", "/healthz", "")
	run(follower, "POST", "/admin/follow", `{}`)
	run(follower, "POST", "/admin/follow", `{"primary":"http://other.invalid:7070"}`)
	run(follower, "POST", "/admin/promote", ``)
	run(follower, "POST", "/admin/follow", `{"primary":"http://other.invalid:7070"}`)
	run(follower, "POST", "/admin/compact", `{}`)

	checkGolden(t, "node-script", b.String())
}

// keySequence lists every object key of a JSON document in document order,
// one nested path per line.
func keySequence(t *testing.T, doc []byte) string {
	t.Helper()
	var b strings.Builder
	dec := json.NewDecoder(bytes.NewReader(doc))
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking JSON: %v", err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatalf("walking JSON: %v", err)
				}
				path := prefix + "." + key.(string)
				b.WriteString(path + "\n")
				walk(path)
			}
			dec.Token()
		case json.Delim('['):
			for dec.More() {
				walk(prefix + "[]")
			}
			dec.Token()
		}
	}
	walk("")
	return b.String()
}

// TestWireGoldenStatsKeys pins the nested key order of the catalog
// handler's /stats.
func TestWireGoldenStatsKeys(t *testing.T) {
	cat, _ := goldenNode(t)
	h := NewCatalogHTTPHandler(cat, DefaultEngineConfig())
	serve(h, "GET", "/search?q=0&k=3", "")
	rec := serve(h, "GET", "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats status %d", rec.Code)
	}
	checkGolden(t, "stats-catalog", keySequence(t, rec.Body.Bytes()))
}

// expositionShape reduces a Prometheus text body to its ordered # HELP and
// # TYPE lines and its ordered series (name plus label set): sample values
// are dropped, loopback member URLs replaced, and a histogram's run of
// _bucket lines folds into one line carrying the bucket count.
func expositionShape(body string) string {
	var b strings.Builder
	prev, run := "", 0
	flush := func() {
		if run > 1 {
			fmt.Fprintf(&b, "%s x%d\n", prev, run)
		} else if run == 1 {
			b.WriteString(prev + "\n")
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
			line = leRe.ReplaceAllString(line, `le="*"`)
		}
		line = memberRe.ReplaceAllString(line, "$$MEMBER")
		if line == prev {
			run++
			continue
		}
		flush()
		prev, run = line, 1
	}
	flush()
	return b.String()
}

// TestWireGoldenMetrics pins the family and series order of the node's and
// the router's /metrics.
func TestWireGoldenMetrics(t *testing.T) {
	cat, _ := goldenNode(t)
	node := NewClusterNodeHandler(cat, DefaultEngineConfig(), nil)
	serve(node, "GET", "/search?q=0&k=3", "")
	serve(node, "POST", "/admin/mutate", `{"deltas":[{"op":"add_edge","u":10,"v":0}]}`)
	rec := serve(node, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("node /metrics status %d", rec.Code)
	}
	checkGolden(t, "metrics-node", "Content-Type: "+rec.Header().Get("Content-Type")+"\n"+expositionShape(rec.Body.String()))

	srv := httptest.NewServer(node)
	t.Cleanup(srv.Close)
	router, err := NewClusterRouter(ClusterRouterConfig{Members: []string{srv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(router.Close)
	serve(router, "GET", "/search?q=0&k=3", "")
	serve(router, "POST", "/batch", `{"queries":[1,2],"k":3}`)
	rec = serve(router, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("router /metrics status %d", rec.Code)
	}
	checkGolden(t, "metrics-router", "Content-Type: "+rec.Header().Get("Content-Type")+"\n"+expositionShape(rec.Body.String()))
}
