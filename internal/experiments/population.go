package experiments

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
)

// population is one graph of the evaluation — a dataset analog or a
// meta-path projection — with its metric at one γ and the query nodes the
// Config draws on it.
type population struct {
	name string
	g    *graph.Graph
	m    *attr.Metric
	qs   []graph.NodeID
	gen  *dataset.Generated    // homogeneous and ego analogs: the planted ground truth
	het  *dataset.HetGenerated // projections: the heterogeneous graph
}

// homogeneous is the named homogeneous analog at cfg.Scale.
func homogeneous(cfg Config, name string) (*population, error) {
	d, err := dataset.Homogeneous(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return generated(cfg, d)
}

// ego is the i-th ego network of Figure 6, whose size no scale sets.
func ego(cfg Config, i int) (*population, error) {
	d, err := dataset.EgoNetwork(i)
	if err != nil {
		return nil, err
	}
	return generated(cfg, d)
}

func generated(cfg Config, d *dataset.Generated) (*population, error) {
	p := population{name: d.Spec.Name, g: d.Graph, qs: d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed), gen: d}
	return p.at(cfg.Gamma)
}

// projected is the named heterogeneous analog at cfg.Scale, projected along
// its meta-path (§VI-A), with its query targets mapped onto the projection.
func projected(cfg Config, name string) (*population, error) {
	d, err := dataset.Heterogeneous(name, cfg.Scale)
	if err != nil {
		return nil, err
	}
	proj, err := d.Het.Project(d.Path)
	if err != nil {
		return nil, err
	}
	p := population{name: name, g: proj.Graph, het: d}
	for _, q := range d.QueryTargets(cfg.Queries, cfg.K, cfg.Seed) {
		p.qs = append(p.qs, proj.FromHet[q])
	}
	return p.at(cfg.Gamma)
}

// at returns a copy of p whose metric balances at gamma.
func (p population) at(gamma float64) (*population, error) {
	m, err := attr.NewMetric(p.g, gamma)
	if err != nil {
		return nil, err
	}
	p.m = m
	return &p, nil
}

// lineupRow is one search of a line-up: its display name and the Request
// that runs it, Query left for the loop to fill per query node.
type lineupRow struct {
	name string
	req  query.Request
}

// record is one search of a line-up.
type record struct {
	q   graph.NodeID
	row int            // index of the search's row in the line-up
	out *query.Outcome // nil when the method returned no community
	ms  float64        // wall time of the search
	ref float64        // δ of q's reference search; NaN without one
}

// lineup runs every row for every query node of p and returns one record per
// search: q by q in p's order, and within q the rows in order. ref indexes
// the row whose δ is the reference of q's records, or is -1.
func (p *population) lineup(rows []lineupRow, ref int) []record {
	recs := make([]record, 0, len(p.qs)*len(rows))
	for _, q := range p.qs {
		first := len(recs)
		for i, row := range rows {
			start := time.Now()
			out := p.answer(q, row.req)
			recs = append(recs, record{q: q, row: i, out: out, ms: ms(time.Since(start)), ref: math.NaN()})
		}
		if ref >= 0 && recs[first+ref].out != nil {
			for j := first; j < len(recs); j++ {
				recs[j].ref = recs[first+ref].out.Delta
			}
		}
	}
	return recs
}

// answer runs req for query node q through query.Run on p's graph and
// metric; the solver computes f(·,q) itself, inside the caller's timer, as a
// served query does. It is nil when the method returned no community. A
// search that exhausted its state budget counts with the best-so-far it
// returned, as the paper's budgeted exact reference does.
func (p *population) answer(q graph.NodeID, req query.Request) *query.Outcome {
	// The paper's '-' cells: ACQ maximizes the attributes shared with q, so a
	// query node without textual attributes has no attributed community —
	// the solver would hand back the plain maximal structure.
	if req.Method == query.MethodACQ && len(p.g.TextAttrs(q)) == 0 {
		return nil
	}
	req.Query = q
	out, err := query.Run(context.Background(), p.g, p.m, req)
	if err != nil && !errors.Is(err, cserr.ErrBudgetExhausted) {
		return nil
	}
	return out
}

// relErr is the relative error of a found community's δ against q's
// reference, in percent; 0 without a positive reference.
func (r record) relErr() float64 {
	if !(r.ref > 0) {
		return 0
	}
	return 100 * math.Abs(r.out.Delta-r.ref) / r.ref
}

// mean is the per-query mean of a sum over n queries; 0 over none.
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
