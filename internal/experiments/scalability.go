package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sea"
)

// ScaleRow is one graph-size point of the scalability sweep.
type ScaleRow struct {
	Scale     float64
	Nodes     int
	Edges     int
	SEAMS     float64
	ExactMS   float64
	Speedup   float64
	SEARelErr float64 // % vs the budgeted exact
}

// Scalability answers §VII-E's scalability question directly: sweep the
// twitter analog's size and measure SEA versus the budgeted Exact. SEA's
// advantage must grow with the graph (the paper's Figure 5(c) trend).
func Scalability(cfg Config, w io.Writer) ([]ScaleRow, error) {
	scales := []float64{0.1, 0.2, 0.4}
	if cfg.Scale >= 0.5 {
		scales = []float64{0.2, 0.5, 1.0}
	}
	var rows []ScaleRow
	for _, scale := range scales {
		d, err := dataset.Homogeneous("twitter", scale)
		if err != nil {
			return nil, err
		}
		m, err := attr.NewMetric(d.Graph, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		row := ScaleRow{Scale: scale, Nodes: d.Graph.NumNodes(), Edges: d.Graph.NumEdges()}
		n := 0
		for _, q := range d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed) {
			dist := m.QueryDist(q)
			start := time.Now()
			res, ok := answer(d.Graph, m, dist, q, cfg.request(query.MethodSEA, sea.KCore))
			if !ok {
				continue
			}
			seaMS := ms(time.Since(start))
			start = time.Now()
			ex, ok := answer(d.Graph, m, dist, q, cfg.request(query.MethodExact, sea.KCore))
			if !ok {
				continue
			}
			row.SEAMS += seaMS
			row.ExactMS += ms(time.Since(start))
			if ex.Delta > 0 {
				rel := (res.Delta - ex.Delta) / ex.Delta
				if rel < 0 {
					rel = -rel
				}
				row.SEARelErr += 100 * rel
			}
			n++
		}
		if n > 0 {
			row.SEAMS /= float64(n)
			row.ExactMS /= float64(n)
			row.SEARelErr /= float64(n)
			if row.SEAMS > 0 {
				row.Speedup = row.ExactMS / row.SEAMS
			}
		}
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Scalability: SEA vs budgeted Exact as the twitter analog grows",
		Header: []string{"scale", "#nodes", "#edges", "SEA ms", "Exact ms", "speedup", "SEA rel.err %"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", r.Scale), fmt.Sprint(r.Nodes), fmt.Sprint(r.Edges),
			fmtF(r.SEAMS), fmtF(r.ExactMS), fmt.Sprintf("%.1fx", r.Speedup), fmtF(r.SEARelErr),
		})
	}
	t.Render(w)
	return rows, nil
}
