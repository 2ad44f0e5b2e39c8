package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/sea"
)

// TestRunInputsAnyCaller: Run builds the metric and f(·,q) itself when the
// caller passes neither, builds f from a supplied metric, and takes both as
// given. All three must answer alike — the same Outcome JSON and the same
// error — for every method, for a request with no community, and under a
// cancelled context.
func TestRunInputsAnyCaller(t *testing.T) {
	d, err := dataset.Generate(dataset.Spec{
		Name: "inputs", Nodes: 300, MinCommunity: 12, MaxCommunity: 30,
		IntraDegree: 8, InterDegree: 0.8,
		TokensPerNode: 4, PoolSize: 6, Vocab: 80, NoiseProb: 0.15,
		NumDim: 2, NumSigma: 0.06, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	m, err := attr.NewMetric(g, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	q := d.QueryNodes(1, 4, 5)[0]
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	answer := func(ctx context.Context, m *attr.Metric, dist []float64, req Request) string {
		out, err := Run(ctx, g, m, dist, req)
		blob, jerr := json.Marshal(out)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s err=%v", blob, err)
	}
	for _, method := range Methods() {
		req := Request{Query: q, Method: method, K: 4, Seed: 3, MaxStates: 2000}
		noCommunity := req
		noCommunity.K = 99
		for _, tc := range []struct {
			name string
			ctx  context.Context
			req  Request
		}{
			{"answer", context.Background(), req},
			{"no community", context.Background(), noCommunity},
			{"cancelled", cancelled, req},
		} {
			t.Run(method.String()+"/"+tc.name, func(t *testing.T) {
				built := answer(tc.ctx, nil, nil, tc.req)
				fromMetric := answer(tc.ctx, m, nil, tc.req)
				given := answer(tc.ctx, m, m.QueryDist(q), tc.req)
				if built != fromMetric || built != given {
					t.Fatalf("answers differ by who supplies the inputs:\n  nil, nil: %s\n  m, nil:   %s\n  m, f:     %s", built, fromMetric, given)
				}
			})
		}
	}
}

// TestRunInputsAtScale is TestRunInputsAnyCaller for SEA on the benchmark's
// cold populations: twitch's eligible nodes in the benchmark's fixed order,
// a distinct seed per request, 60 requests each under k-truss at k=5 (the
// cold-truss workload) and k-core at k=6. Run with no f(·,q) vector, which
// evaluates f lazily inside the search, and Run with m.QueryDist(q) must
// give byte-equal Outcome JSON and the same error.
func TestRunInputsAtScale(t *testing.T) {
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	m, err := attr.NewMetric(g, DefaultGamma)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(dist []float64, req Request) string {
		out, err := Run(context.Background(), g, m, dist, req)
		blob, jerr := json.Marshal(out)
		if jerr != nil {
			t.Fatal(jerr)
		}
		return fmt.Sprintf("%s err=%v", blob, err)
	}
	const requests = 60
	for _, mk := range []struct {
		model sea.Model
		k     int
	}{{sea.KTruss, 5}, {sea.KCore, 6}} {
		// The benchmark's population: core members of planted communities
		// that can host a (k+1)-node community, with degree ≥ k, shuffled
		// with seed 7.
		var nodes []graph.NodeID
		for _, members := range d.Communities {
			if len(members) < mk.k+1 {
				continue
			}
			for _, v := range members {
				if d.IsCore[v] && g.Degree(v) >= mk.k {
					nodes = append(nodes, v)
				}
			}
		}
		rand.New(rand.NewSource(7)).Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		for i := range requests {
			q := nodes[i%len(nodes)]
			req := Request{Query: q, K: mk.k, Model: mk.model, Seed: 1_000_003 + int64(i) + 1}
			lazy, given := answer(nil, req), answer(m.QueryDist(q), req)
			if lazy != given {
				t.Fatalf("%v k=%d q=%d seed=%d: answers differ by who supplies f:\n  m, nil: %s\n  m, f:   %s", mk.model, mk.k, q, req.Seed, lazy, given)
			}
		}
	}
}
