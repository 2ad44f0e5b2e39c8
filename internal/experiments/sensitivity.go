package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
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
	egoCfg := cfg
	egoCfg.K = 4 // ego networks are small; use a gentler core
	var rows []Fig6Row
	var f1s []map[string]float64
	for i := range dataset.EgoNames {
		p, err := ego(egoCfg, i)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{Ego: p.name, F1: f1Means(egoCfg, p)})
		f1s = append(f1s, rows[i].F1)
	}
	renderF1(w, egoCfg, "Figure 6: F1-score per ego network", dataset.EgoNames, f1s)
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

// pair is the projection of one heterogeneous analog, then one homogeneous
// analog: the two datasets of Figures 7, 8 and 10.
func pair(cfg Config, het, hom string) ([]*population, error) {
	p, err := projected(cfg, het)
	if err != nil {
		return nil, err
	}
	h, err := homogeneous(cfg, hom)
	if err != nil {
		return nil, err
	}
	return []*population{p, h}, nil
}

// Fig8 sweeps λ, ϵ, 1−β, e, 1−α and k as in Figure 8, reporting efficiency
// (time) and effectiveness (δ, and relative error for the accuracy sweeps)
// on the DBLP projection and the Twitter analog. The λ sweep adds 1, the
// library's default, beside the paper's values.
func Fig8(cfg Config, w io.Writer) ([]SweepPoint, error) {
	pops, err := pair(cfg, "dblp", "twitter")
	if err != nil {
		return nil, err
	}
	sweeps := []struct {
		param  string
		values []float64
		apply  func(*query.Request, float64)
	}{
		{"lambda", []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1}, func(r *query.Request, x float64) { r.Lambda = x }},
		{"eps", []float64{0.01, 0.02, 0.03, 0.04, 0.05}, func(r *query.Request, x float64) { r.Eps = x }},
		{"1-beta", []float64{0.86, 0.90, 0.94, 0.98}, func(r *query.Request, x float64) { r.Beta = 1 - x }},
		{"e", []float64{0.01, 0.02, 0.03, 0.04, 0.05}, func(r *query.Request, x float64) { r.ErrorBound = x }},
		{"1-alpha", []float64{0.86, 0.90, 0.94, 0.98}, func(r *query.Request, x float64) { r.Confidence = x }},
		{"k", []float64{4, 5, 6, 7, 8}, func(r *query.Request, x float64) { r.K = int(x) }},
	}
	var lineup []lineupRow
	var params []SweepPoint
	for _, sweep := range sweeps {
		for _, x := range sweep.values {
			req := cfg.request(query.MethodSEA, sea.KCore)
			sweep.apply(&req, x)
			lineup = append(lineup, lineupRow{sweep.param, req})
			params = append(params, SweepPoint{Param: sweep.param, X: x})
		}
	}
	ref := len(lineup)
	lineup = append(lineup, lineupRow{"reference", cfg.request(query.MethodExact, sea.KCore)})
	var points []SweepPoint
	for _, p := range pops {
		pts := append([]SweepPoint(nil), params...)
		n := make([]int, len(pts))
		for _, r := range p.lineup(lineup, ref) {
			if r.row == ref || r.out == nil {
				continue
			}
			pt := &pts[r.row]
			pt.TimeMS += r.ms
			pt.Delta += r.out.Delta
			if pt.Param == "e" || pt.Param == "1-alpha" {
				pt.RelErr += r.relErr()
			}
			n[r.row]++
		}
		for i := range pts {
			pts[i].Dataset = p.name
			pts[i].TimeMS, pts[i].Delta, pts[i].RelErr = mean(pts[i].TimeMS, n[i]), mean(pts[i].Delta, n[i]), mean(pts[i].RelErr, n[i])
		}
		points = append(points, pts...)
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
// attribute-distance components of the returned communities, on the DBLP
// projection and the Twitter analog.
func Fig10(cfg Config, w io.Writer) ([]Fig10Row, error) {
	pops, err := pair(cfg, "dblp", "twitter")
	if err != nil {
		return nil, err
	}
	seaOnly := []lineupRow{{"SEA", cfg.request(query.MethodSEA, sea.KCore)}}
	var rows []Fig10Row
	for _, p := range pops {
		for _, gamma := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
			pg, err := p.at(gamma)
			if err != nil {
				return nil, err
			}
			row := Fig10Row{Dataset: p.name, Gamma: gamma}
			n := 0
			for _, r := range pg.lineup(seaOnly, -1) {
				if r.out == nil {
					continue
				}
				var jd, md float64
				cnt := 0
				for _, v := range r.out.Community {
					if v != r.q {
						jd += pg.m.Jaccard(v, r.q)
						md += pg.m.Manhattan(v, r.q)
						cnt++
					}
				}
				if cnt > 0 {
					row.Jaccard += mean(jd, cnt)
					row.Manhattan += mean(md, cnt)
					n++
				}
			}
			row.Jaccard, row.Manhattan = mean(row.Jaccard, n), mean(row.Manhattan, n)
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
