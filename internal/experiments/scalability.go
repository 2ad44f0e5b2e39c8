package experiments

import (
	"fmt"
	"io"
	"math"

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
	lineup := []lineupRow{
		{"SEA", cfg.request(query.MethodSEA, sea.KCore)},
		{"Exact", cfg.request(query.MethodExact, sea.KCore)},
	}
	var rows []ScaleRow
	for _, scale := range scales {
		at := cfg
		at.Scale = scale
		p, err := homogeneous(at, "twitter")
		if err != nil {
			return nil, err
		}
		row := ScaleRow{Scale: scale, Nodes: p.g.NumNodes(), Edges: p.g.NumEdges()}
		n := 0
		recs := p.lineup(lineup, 1)
		for i := 0; i < len(recs); i += len(lineup) { // one query: SEA, then Exact
			s, ex := recs[i], recs[i+1]
			if s.out == nil || ex.out == nil {
				continue
			}
			row.SEAMS += s.ms
			row.ExactMS += ex.ms
			if s.ref > 0 {
				// 100·(|Δ|/ref), where relErr computes 100·|Δ|/ref: the
				// recorded rows keep this order's last bit.
				row.SEARelErr += 100 * (math.Abs(s.out.Delta-s.ref) / s.ref)
			}
			n++
		}
		row.SEAMS, row.ExactMS, row.SEARelErr = mean(row.SEAMS, n), mean(row.ExactMS, n), mean(row.SEARelErr, n)
		if row.SEAMS > 0 {
			row.Speedup = row.ExactMS / row.SEAMS
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
