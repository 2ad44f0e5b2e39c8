package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
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
	lineup := []lineupRow{
		{"SEA", cfg.request(query.MethodSEA, sea.KCore)},
		{"ACQ-Core", cfg.request(query.MethodACQ, sea.KCore)},
		{"LocATC-Core", cfg.request(query.MethodLocATC, sea.KCore)},
		{"VAC-Core", cfg.request(query.MethodVAC, sea.KCore)},
		{"SEA-Truss", cfg.request(query.MethodSEA, sea.KTruss)},
		{"LocATC-Truss", cfg.request(query.MethodLocATC, sea.KTruss)},
		{"VAC-Truss", cfg.request(query.MethodVAC, sea.KTruss)},
		{"reference", cfg.request(query.MethodExact, sea.KCore)}, // not reported
	}
	ref := len(lineup) - 1
	var rows []Table5Row
	for _, name := range dataset.HetNames {
		p, err := projected(cfg, name)
		if err != nil {
			return nil, err
		}
		for _, r := range methodRows(p, lineup, ref)[:ref] {
			rows = append(rows, Table5Row{Dataset: r.Dataset, Method: r.Method, TimeMS: r.TimeMS, RelErr: r.RelErr, Fail: r.Failures})
		}
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

// sizeBounded is one size-bounded SEA row (§VI-B) per [lo, hi] bound.
func (c Config) sizeBounded(bounds [][2]int) []lineupRow {
	rows := make([]lineupRow, len(bounds))
	for i, b := range bounds {
		rows[i].req = c.request(query.MethodSEA, sea.KCore)
		rows[i].req.SizeLo, rows[i].req.SizeHi = b[0], b[1]
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
// projection and the GitHub analog, against unbounded SEA's δ.
func Fig7(cfg Config, w io.Writer) ([]Fig7Row, error) {
	pops, err := pair(cfg, "dblp", "github")
	if err != nil {
		return nil, err
	}
	lineup := append(cfg.sizeBounded(fig7Bounds), lineupRow{"unbounded", cfg.request(query.MethodSEA, sea.KCore)})
	ref := len(fig7Bounds)
	var rows []Fig7Row
	for _, p := range pops {
		pts := make([]Fig7Row, len(fig7Bounds))
		for i, b := range fig7Bounds {
			pts[i] = Fig7Row{Dataset: p.name, SizeLo: b[0], SizeHi: b[1]}
		}
		for _, r := range p.lineup(lineup, ref) {
			if r.row == ref || r.out == nil {
				continue
			}
			pts[r.row].TimeMS += r.ms
			pts[r.row].RelErr += r.relErr()
			pts[r.row].Hits++
		}
		for i := range pts {
			pts[i].TimeMS, pts[i].RelErr = mean(pts[i].TimeMS, pts[i].Hits), mean(pts[i].RelErr, pts[i].Hits)
		}
		rows = append(rows, pts...)
	}
	t := &Table{
		Title:  "Figure 7: size-bounded community search (SEA)",
		Header: []string{"dataset", "size bound", "time ms", "rel.err %", "hits"},
	}
	for _, r := range rows {
		timeMS, relErr := r.TimeMS, r.RelErr
		if r.Hits == 0 { // no search fit the bound: nothing was measured
			timeMS, relErr = math.NaN(), math.NaN()
		}
		t.Rows = append(t.Rows, []string{
			r.Dataset, fmt.Sprintf("[%d,%d]", r.SizeLo, r.SizeHi),
			fmtF(timeMS), fmtF(relErr), fmt.Sprint(r.Hits),
		})
	}
	t.Render(w)
	return rows, nil
}
