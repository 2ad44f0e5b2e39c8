package query

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
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
