package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
)

// Table5Row aggregates one method on one heterogeneous dataset.
type Table5Row struct {
	Dataset string
	Method  string
	TimeMS  float64
	RelErr  float64 // % vs the budgeted exact reference on the projection
	Fail    int
}

// Table5 runs core- and truss-based methods on the heterogeneous analogs
// via the meta-path projection (§VI-A). ACQ rows on the numerical-only
// knowledge-graph analogs report failures, matching the paper's '-' cells.
func Table5(cfg Config, w io.Writer) ([]Table5Row, error) {
	var rows []Table5Row
	for _, name := range dataset.HetNames {
		d, err := dataset.Heterogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		proj, err := d.Het.Project(d.Path)
		if err != nil {
			return nil, err
		}
		m, err := attr.NewMetric(proj.Graph, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		var queries []graph.NodeID
		for _, hq := range d.QueryTargets(cfg.Queries, cfg.K, cfg.Seed) {
			queries = append(queries, proj.FromHet[hq])
		}
		rows = append(rows, runHetMethods(cfg, name, proj.Graph, m, queries)...)
	}
	t := &Table{
		Title:  "Table V: heterogeneous graphs, core- and truss-based methods",
		Header: []string{"dataset", "method", "time ms", "rel.err %", "failures"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, r.Method, fmtF(r.TimeMS), fmtF(r.RelErr), fmt.Sprint(r.Fail),
		})
	}
	t.Render(w)
	return rows, nil
}

// runHetMethods evaluates the Table-V method lineup on a projected graph.
func runHetMethods(cfg Config, name string, g *graph.Graph, m *attr.Metric, queries []graph.NodeID) []Table5Row {
	lineup := []lineupRow{
		{"SEA", cfg.request(query.MethodSEA, sea.KCore)},
		{"ACQ-Core", cfg.request(query.MethodACQ, sea.KCore)},
		{"LocATC-Core", cfg.request(query.MethodLocATC, sea.KCore)},
		{"VAC-Core", cfg.request(query.MethodVAC, sea.KCore)},
		{"SEA-Truss", cfg.request(query.MethodSEA, sea.KTruss)},
		{"LocATC-Truss", cfg.request(query.MethodLocATC, sea.KTruss)},
		{"VAC-Truss", cfg.request(query.MethodVAC, sea.KTruss)},
	}
	rows := make([]Table5Row, len(lineup))
	counts := make([]int, len(lineup))
	for i := range rows {
		rows[i] = Table5Row{Dataset: name, Method: lineup[i].name}
	}
	for _, q := range queries {
		dist := m.QueryDist(q)
		refDelta := math.NaN()
		if ref, ok := answer(g, m, dist, q, cfg.request(query.MethodExact, sea.KCore)); ok {
			refDelta = ref.Delta
		}
		for i, meth := range lineup {
			start := time.Now()
			out, ok := answer(g, m, dist, q, meth.req)
			if !ok {
				rows[i].Fail++
				continue
			}
			rows[i].TimeMS += ms(time.Since(start))
			if !math.IsNaN(refDelta) && refDelta > 0 {
				rows[i].RelErr += 100 * math.Abs(out.Delta-refDelta) / refDelta
			}
			counts[i]++
		}
	}
	for i := range rows {
		if counts[i] > 0 {
			rows[i].TimeMS /= float64(counts[i])
			rows[i].RelErr /= float64(counts[i])
		}
	}
	return rows
}

// Fig7Row is one size-range point of Figure 7.
type Fig7Row struct {
	Dataset        string
	SizeLo, SizeHi int
	TimeMS         float64
	RelErr         float64 // % vs size-unbounded SEA reference
	Hits           int
}

// fig7Bounds are the size ranges of Figure 7.
var fig7Bounds = [][2]int{{30, 35}, {35, 40}, {40, 45}, {45, 50}}

// Fig7 runs size-bounded SEA over the size ranges of Figure 7 on the DBLP
// projection and the GitHub analog.
func Fig7(cfg Config, w io.Writer) ([]Fig7Row, error) {
	var rows []Fig7Row
	// DBLP analog (projected) and GitHub analog.
	dblp, err := dataset.Heterogeneous("dblp", cfg.Scale)
	if err != nil {
		return nil, err
	}
	proj, err := dblp.Het.Project(dblp.Path)
	if err != nil {
		return nil, err
	}
	var dblpQ []graph.NodeID
	for _, hq := range dblp.QueryTargets(cfg.Queries, cfg.K, cfg.Seed) {
		dblpQ = append(dblpQ, proj.FromHet[hq])
	}
	gh, err := dataset.Homogeneous("github", cfg.Scale)
	if err != nil {
		return nil, err
	}
	targets := []struct {
		name    string
		g       *graph.Graph
		queries []graph.NodeID
	}{
		{"dblp", proj.Graph, dblpQ},
		{"github", gh.Graph, gh.QueryNodes(cfg.Queries, cfg.K, cfg.Seed)},
	}
	for _, tgt := range targets {
		m, err := attr.NewMetric(tgt.g, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		for _, bound := range fig7Bounds {
			row := Fig7Row{Dataset: tgt.name, SizeLo: bound[0], SizeHi: bound[1]}
			for _, q := range tgt.queries {
				dist := m.QueryDist(q)
				req := cfg.request(query.MethodSEA, sea.KCore)
				req.SizeLo, req.SizeHi = bound[0], bound[1]
				start := time.Now()
				res, ok := answer(tgt.g, m, dist, q, req)
				if !ok {
					continue
				}
				row.TimeMS += ms(time.Since(start))
				// Reference: unbounded SEA δ.
				free, ok := answer(tgt.g, m, dist, q, cfg.request(query.MethodSEA, sea.KCore))
				if ok && free.Delta > 0 {
					row.RelErr += 100 * math.Abs(res.Delta-free.Delta) / free.Delta
				}
				row.Hits++
			}
			if row.Hits > 0 {
				row.TimeMS /= float64(row.Hits)
				row.RelErr /= float64(row.Hits)
			}
			rows = append(rows, row)
		}
	}
	t := &Table{
		Title:  "Figure 7: size-bounded community search (SEA)",
		Header: []string{"dataset", "size bound", "time ms", "rel.err %", "hits"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprintf("[%d,%d]", r.SizeLo, r.SizeHi),
			fmtF(r.TimeMS), fmtF(r.RelErr), fmt.Sprint(r.Hits),
		})
	}
	t.Render(w)
	return rows, nil
}
