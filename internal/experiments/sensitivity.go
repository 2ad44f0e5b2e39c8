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

// Fig6Row is one ego-network F1 column of Figure 6.
type Fig6Row struct {
	Ego string
	F1  map[string]float64
}

// Fig6 computes per-ego-network F1 for SEA, Exact, and the baselines on the
// ten generated ego networks.
func Fig6(cfg Config, w io.Writer) ([]Fig6Row, error) {
	var rows []Fig6Row
	egoCfg := cfg
	egoCfg.K = 4 // ego networks are small; use a gentler core
	for i := 0; i < 10; i++ {
		d, err := dataset.EgoNetwork(i)
		if err != nil {
			return nil, err
		}
		row, err := f1ForDataset(egoCfg, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{Ego: d.Spec.Name, F1: row.F1})
	}
	t := &Table{
		Title:  "Figure 6: F1-score per ego network",
		Header: append([]string{"method"}, dataset.EgoNames...),
	}
	for _, meth := range egoCfg.homogeneousMethods(false) {
		cells := []string{meth.name}
		for _, row := range rows {
			cells = append(cells, fmtF(row.F1[meth.name]))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Render(w)
	return rows, nil
}

// SweepPoint is one x-value of a parameter-sensitivity curve.
type SweepPoint struct {
	Dataset string
	Param   string
	X       float64
	TimeMS  float64
	Delta   float64
	RelErr  float64 // % vs budgeted exact (only for the e and 1−α sweeps)
}

// fig8Datasets: the paper sweeps DBLP and Twitter; we use their analogs
// (DBLP via projection, Twitter homogeneous).
func fig8Datasets(cfg Config) (map[string]*graph.Graph, map[string][]graph.NodeID, error) {
	graphs := map[string]*graph.Graph{}
	queries := map[string][]graph.NodeID{}
	dblp, err := dataset.Heterogeneous("dblp", cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	proj, err := dblp.Het.Project(dblp.Path)
	if err != nil {
		return nil, nil, err
	}
	graphs["dblp"] = proj.Graph
	for _, hq := range dblp.QueryTargets(cfg.Queries, cfg.K, cfg.Seed) {
		queries["dblp"] = append(queries["dblp"], proj.FromHet[hq])
	}
	tw, err := dataset.Homogeneous("twitter", cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	graphs["twitter"] = tw.Graph
	queries["twitter"] = tw.QueryNodes(cfg.Queries, cfg.K, cfg.Seed)
	return graphs, queries, nil
}

// Fig8 sweeps λ, ϵ, 1−β, e, 1−α and k as in Figure 8, reporting efficiency
// (time) and effectiveness (δ, and relative error for the accuracy sweeps).
func Fig8(cfg Config, w io.Writer) ([]SweepPoint, error) {
	graphs, queries, err := fig8Datasets(cfg)
	if err != nil {
		return nil, err
	}
	sweeps := []struct {
		param  string
		values []float64
		apply  func(*query.Request, float64)
	}{
		{"lambda", []float64{0.1, 0.2, 0.4, 0.6, 0.8}, func(r *query.Request, x float64) { r.Lambda = x }},
		{"eps", []float64{0.01, 0.02, 0.03, 0.04, 0.05}, func(r *query.Request, x float64) { r.Eps = x }},
		{"1-beta", []float64{0.86, 0.90, 0.94, 0.98}, func(r *query.Request, x float64) { r.Beta = 1 - x }},
		{"e", []float64{0.01, 0.02, 0.03, 0.04, 0.05}, func(r *query.Request, x float64) { r.ErrorBound = x }},
		{"1-alpha", []float64{0.86, 0.90, 0.94, 0.98}, func(r *query.Request, x float64) { r.Confidence = x }},
		{"k", []float64{4, 5, 6, 7, 8}, func(r *query.Request, x float64) { r.K = int(x) }},
	}
	var points []SweepPoint
	for name, g := range graphs {
		m, err := attr.NewMetric(g, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		dists := map[graph.NodeID][]float64{}
		exacts := map[graph.NodeID]float64{}
		for _, q := range queries[name] {
			dists[q] = m.QueryDist(q)
		}
		for _, sweep := range sweeps {
			for _, x := range sweep.values {
				pt := SweepPoint{Dataset: name, Param: sweep.param, X: x}
				n := 0
				needRef := sweep.param == "e" || sweep.param == "1-alpha"
				for _, q := range queries[name] {
					req := cfg.request(query.MethodSEA, sea.KCore)
					sweep.apply(&req, x)
					start := time.Now()
					res, ok := answer(g, m, dists[q], q, req)
					if !ok {
						continue
					}
					pt.TimeMS += ms(time.Since(start))
					pt.Delta += res.Delta
					if needRef {
						ref, ok := exacts[q]
						if !ok {
							ref = math.NaN()
							if ex, ok := answer(g, m, dists[q], q, cfg.request(query.MethodExact, sea.KCore)); ok {
								ref = ex.Delta
							}
							exacts[q] = ref
						}
						if !math.IsNaN(ref) && ref > 0 && req.K == cfg.K {
							pt.RelErr += 100 * math.Abs(res.Delta-ref) / ref
						}
					}
					n++
				}
				if n > 0 {
					pt.TimeMS /= float64(n)
					pt.Delta /= float64(n)
					pt.RelErr /= float64(n)
				}
				points = append(points, pt)
			}
		}
	}
	t := &Table{
		Title:  "Figure 8: parameter sensitivity (dblp and twitter analogs)",
		Header: []string{"dataset", "param", "x", "time ms", "δ", "rel.err %"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Dataset, p.Param, fmt.Sprintf("%.3g", p.X),
			fmtF(p.TimeMS), fmtF(p.Delta), fmtF(p.RelErr),
		})
	}
	t.Render(w)
	return points, nil
}

// Fig10Row is one γ point of Figure 10: the independent textual (Jaccard)
// and numerical (Manhattan) cohesiveness of SEA's community.
type Fig10Row struct {
	Dataset   string
	Gamma     float64
	Jaccard   float64
	Manhattan float64
}

// Fig10 sweeps the balance factor γ and reports the two independent
// attribute-distance components of the returned communities.
func Fig10(cfg Config, w io.Writer) ([]Fig10Row, error) {
	graphs, queries, err := fig8Datasets(cfg)
	if err != nil {
		return nil, err
	}
	gammas := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	var rows []Fig10Row
	for name, g := range graphs {
		for _, gamma := range gammas {
			m, err := attr.NewMetric(g, gamma)
			if err != nil {
				return nil, err
			}
			row := Fig10Row{Dataset: name, Gamma: gamma}
			n := 0
			for _, q := range queries[name] {
				res, ok := answer(g, m, nil, q, cfg.request(query.MethodSEA, sea.KCore))
				if !ok {
					continue
				}
				var jd, md float64
				cnt := 0
				for _, v := range res.Community {
					if v == q {
						continue
					}
					jd += m.Jaccard(v, q)
					md += m.Manhattan(v, q)
					cnt++
				}
				if cnt > 0 {
					row.Jaccard += jd / float64(cnt)
					row.Manhattan += md / float64(cnt)
					n++
				}
			}
			if n > 0 {
				row.Jaccard /= float64(n)
				row.Manhattan /= float64(n)
			}
			rows = append(rows, row)
		}
	}
	t := &Table{
		Title:  "Figure 10: effect of γ on independent attribute cohesiveness",
		Header: []string{"dataset", "γ", "Jaccard dist", "Manhattan dist"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprintf("%.1f", r.Gamma), fmtF(r.Jaccard), fmtF(r.Manhattan),
		})
	}
	t.Render(w)
	return rows, nil
}
