package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// FuzzMutateBody POSTs arbitrary bodies to /admin/mutate on a fresh
// one-dataset catalog over a small generated graph. Engine.ApplyGroups
// panics when a delta Preflight admitted fails in the session, so a body
// that panics here is a delta the preflight let through and the session
// could not apply. Every body must answer 200, 400, 404 or 413, and a 200
// must move the dataset's version up by exactly one.
func FuzzMutateBody(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"fb","deltas":[{"op":"add_edge","u":1,"v":2}]}`,
		`{"graph":"g","deltas":[{"op":"add_edge","u":1,"v":2}]}`,
		`{"deltas":[{"op":"remove_edge","u":0,"v":1},{"op":"add_node","text":["a"],"num":[0.5,0.5]}]}`,
		`{"deltas":[{"op":"set_attr","u":3,"text":[]}]}`,
		`{"deltas":[{"op":"set_attr","u":3,"text":["x","y"],"num":[0.1,0.9]}]}`,
		`{"deltas":[]}`,
	} {
		f.Add(seed)
	}
	d, err := dataset.Generate(dataset.Spec{
		Name: "mutate-fuzz", Nodes: 60, MinCommunity: 6, MaxCommunity: 12,
		IntraDegree: 5, InterDegree: 0.8,
		TokensPerNode: 3, PoolSize: 4, Vocab: 30, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 5,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body string) {
		e, err := engine.New(d.Graph, engine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := catalog.New()
		defer c.Close()
		if _, err := c.Mount("g", e, engine.DefaultConfig(), "fuzz"); err != nil {
			t.Fatal(err)
		}
		h := New(CatalogRoutes(c, engine.DefaultConfig()), nil)
		before := catalogVersion(t, c)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/mutate", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var res struct {
				Version uint64 `json:"version"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatalf("200 with an undecodable body: %v\n%s", err, rec.Body)
			}
			after := catalogVersion(t, c)
			if after != before+1 || res.Version != after {
				t.Fatalf("%s: version %d → %d (answer says %d), want +1", body, before, after, res.Version)
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

func catalogVersion(t *testing.T, c *catalog.Catalog) uint64 {
	t.Helper()
	info, err := c.InfoFor("g")
	if err != nil {
		t.Fatal(err)
	}
	return info.Version
}
