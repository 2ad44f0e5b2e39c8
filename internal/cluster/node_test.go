package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
)

// TestEveryRouteRejectsOtherMethods: every registered path answers a method
// it has no row for with 405, an Allow header naming the ones it has, and
// the JSON {"error": ...} body — before the handler (or the write fence)
// sees the request.
func TestEveryRouteRejectsOtherMethods(t *testing.T) {
	cat := catalog.New()
	t.Cleanup(func() { cat.Close() })
	fol := NewFollower(cat, "http://primary.invalid", t.TempDir(), engine.DefaultConfig(), 0)
	h := NewNodeHandler(cat, engine.DefaultConfig(), fol)

	allowed := map[string]map[string]bool{}
	for _, rt := range nodeRoutes(cat, engine.DefaultConfig(), fol) {
		if allowed[rt.Path] == nil {
			allowed[rt.Path] = map[string]bool{}
		}
		allowed[rt.Path][rt.Method] = true
		if rt.Method == http.MethodGet {
			allowed[rt.Path][http.MethodHead] = true
		}
	}
	for path, ok := range allowed {
		var want []string
		for _, m := range []string{http.MethodGet, http.MethodHead, http.MethodPost} {
			if ok[m] {
				want = append(want, m)
			}
		}
		for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete} {
			if ok[method] {
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader("{}")))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, rec.Code)
				continue
			}
			got := strings.Split(rec.Header().Get("Allow"), ", ")
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s %s: Allow %q, want %v", method, path, rec.Header().Get("Allow"), want)
			}
			var body struct {
				Error string `json:"error"`
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s %s: Content-Type %q", method, path, ct)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Errorf("%s %s: body %q is not {\"error\": ...}", method, path, rec.Body)
			}
		}
	}
}

// TestRouteTableMatchesREADME: the README's endpoint tables and the route
// table list the same (method, path) pairs — neither documents nor serves
// an endpoint the other lacks.
func TestRouteTableMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `(/[a-z/]+)` \\| (GET|POST) \\|")
	var documented []string
	for _, m := range row.FindAllStringSubmatch(string(readme), -1) {
		documented = append(documented, m[2]+" "+m[1])
	}
	var served []string
	for _, rt := range nodeRoutes(catalog.New(), engine.DefaultConfig(), nil) {
		served = append(served, rt.Method+" "+rt.Path)
	}
	sort.Strings(documented)
	sort.Strings(served)
	if got, want := strings.Join(documented, "\n"), strings.Join(served, "\n"); got != want {
		t.Fatalf("README endpoint tables:\n%s\n\nroute table:\n%s", got, want)
	}
}
