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

// Fig5Result carries the per-dataset method rows backing Figures 5(a)-(c).
type Fig5Result struct {
	Rows []MethodRow
}

// Fig5 runs the homogeneous effectiveness/efficiency comparison of
// Figures 5(a)-(c): attribute distance δ, relative error of δ, and response
// time for every method on every homogeneous dataset analog. E-VAC runs only
// on the two smallest datasets, as in the paper.
func Fig5(cfg Config, w io.Writer) (*Fig5Result, error) {
	var all []MethodRow
	for i, name := range dataset.HomogeneousNames {
		d, err := dataset.Homogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		withEVAC := i < 2 // Facebook and GitHub analogs only
		rows, err := cfg.RunMethods(d, withEVAC)
		if err != nil {
			return nil, err
		}
		all = append(all, rows...)
	}
	res := &Fig5Result{Rows: all}
	res.render(w)
	return res, nil
}

func (r *Fig5Result) render(w io.Writer) {
	ta := &Table{Title: "Figure 5(a): attribute distance δ", Header: []string{"dataset", "method", "δ"}}
	tb := &Table{Title: "Figure 5(b): relative error of δ (%)", Header: []string{"dataset", "method", "rel.err %"}}
	tc := &Table{Title: "Figure 5(c): response time (ms)", Header: []string{"dataset", "method", "time ms", "SEA speedup"}}
	seaTime := map[string]float64{}
	for _, row := range r.Rows {
		if row.Method == "SEA" {
			seaTime[row.Dataset] = row.TimeMS
		}
	}
	for _, row := range r.Rows {
		ta.Rows = append(ta.Rows, []string{row.Dataset, row.Method, fmtF(row.Delta)})
		if row.Method != "Exact" {
			tb.Rows = append(tb.Rows, []string{row.Dataset, row.Method, fmtF(row.RelErr)})
		}
		speedup := "-"
		if st := seaTime[row.Dataset]; st > 0 && row.Method != "SEA" {
			speedup = fmt.Sprintf("%.2fx", row.TimeMS/st)
		}
		tc.Rows = append(tc.Rows, []string{row.Dataset, row.Method, fmtF(row.TimeMS), speedup})
	}
	ta.Render(w)
	tb.Render(w)
	tc.Render(w)
}

// Fig5dRow is the per-step time breakdown of Figure 5(d).
type Fig5dRow struct {
	Dataset                string
	S1MS, S2MS, S3MS       float64
	GqSize, SampleSize     float64
	Rounds, SatisfiedCount int
}

// Fig5d measures SEA's three pipeline steps (S1 sampling, S2 estimation,
// S3 incremental sampling) per dataset.
func Fig5d(cfg Config, w io.Writer) ([]Fig5dRow, error) {
	var rows []Fig5dRow
	for _, name := range dataset.HomogeneousNames {
		d, err := dataset.Homogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		m, err := attr.NewMetric(d.Graph, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		row := Fig5dRow{Dataset: name}
		n := 0
		for _, q := range d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed) {
			out, ok := answer(d.Graph, m, nil, q, cfg.request(query.MethodSEA, sea.KCore))
			if !ok {
				continue
			}
			res := out.SEA
			row.S1MS += ms(res.Steps.Sampling)
			row.S2MS += ms(res.Steps.Estimation)
			row.S3MS += ms(res.Steps.Incremental)
			row.GqSize += float64(res.GqSize)
			row.SampleSize += float64(res.SampleSize)
			row.Rounds += len(res.Rounds)
			if res.Satisfied {
				row.SatisfiedCount++
			}
			n++
		}
		if n > 0 {
			row.S1MS /= float64(n)
			row.S2MS /= float64(n)
			row.S3MS /= float64(n)
			row.GqSize /= float64(n)
			row.SampleSize /= float64(n)
		}
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Figure 5(d): SEA per-step time (ms)",
		Header: []string{"dataset", "S1 sampling", "S2 estimation", "S3 incremental", "|Gq|", "|S|", "satisfied"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Dataset, fmtF(row.S1MS), fmtF(row.S2MS), fmtF(row.S3MS),
			fmt.Sprintf("%.0f", row.GqSize), fmt.Sprintf("%.0f", row.SampleSize),
			fmt.Sprintf("%d/%d", row.SatisfiedCount, cfg.Queries),
		})
	}
	t.Render(w)
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
