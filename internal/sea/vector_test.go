package sea

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
)

// TestVectorPathMatchesLazy holds SearchWithDistContext to SearchContext on
// the benchmark's cold populations: twitch's eligible nodes in the
// benchmark's fixed order, a distinct seed per request, 60 requests each
// under k-truss at k=5 (the cold-truss workload) and k-core at k=6. A search
// reading m.QueryDist(q) and one evaluating f lazily must return the same
// Result, wall times aside, and the same error — the benchmark's trace
// checks the engine's answers against the vector path.
func TestVectorPathMatchesLazy(t *testing.T) {
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	m, err := attr.NewMetric(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(res *Result, err error) string {
		if res != nil {
			res = stripTimes(res)
		}
		blob, jerr := json.Marshal(res)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s err=%v", blob, err)
	}
	const requests = 60
	for _, mk := range []struct {
		model Model
		k     int
	}{{KTruss, 5}, {KCore, 6}} {
		nodes := population(d, mk.k)
		opts := DefaultOptions()
		opts.Model, opts.K = mk.model, mk.k
		for i := range requests {
			q := nodes[i%len(nodes)]
			opts.Seed = 1_000_003 + int64(i) + 1
			lazy := answer(SearchContext(context.Background(), g, m, q, opts))
			vector := answer(SearchWithDistContext(context.Background(), g, m.QueryDist(q), q, opts))
			if lazy != vector {
				t.Fatalf("%v k=%d q=%d seed=%d: answers differ by who evaluates f:\n  lazy:   %s\n  vector: %s", mk.model, mk.k, q, opts.Seed, lazy, vector)
			}
		}
	}
}
