package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sea"
)

// MethodRow aggregates one method's behaviour over all queries of a dataset.
type MethodRow struct {
	Dataset  string
	Method   string
	Delta    float64 // mean δ over queries
	RelErr   float64 // mean relative error of δ vs the exact reference (%)
	TimeMS   float64 // mean response time in milliseconds
	Failures int     // queries where the method found no community
}

// homogeneousMethods enumerates the §VII-A method lineup for k-core; row 1,
// Exact, is the relative-error reference of the others.
func (c Config) homogeneousMethods(withEVAC bool) []lineupRow {
	rows := []lineupRow{
		{"SEA", c.request(query.MethodSEA, sea.KCore)},
		{"Exact", c.request(query.MethodExact, sea.KCore)},
		{"LocATC-Core", c.request(query.MethodLocATC, sea.KCore)},
		{"ACQ-Core", c.request(query.MethodACQ, sea.KCore)},
		{"VAC-Core", c.request(query.MethodVAC, sea.KCore)},
	}
	if withEVAC {
		rows = append(rows, lineupRow{"E-VAC-Core", c.request(query.MethodEVAC, sea.KCore)})
	}
	return rows
}

// RunMethods evaluates the §VII-A line-up (with E-VAC when withEVAC) on
// every query of the named homogeneous analog and aggregates. The "Exact"
// row is the relative-error reference for the others.
func (c Config) RunMethods(name string, withEVAC bool) ([]MethodRow, error) {
	p, err := homogeneous(c, name)
	if err != nil {
		return nil, err
	}
	return methodRows(p, c.homogeneousMethods(withEVAC), 1), nil
}

// methodRows runs lineup over p and aggregates one row per method; row ref's
// δ is the relative-error reference.
func methodRows(p *population, lineup []lineupRow, ref int) []MethodRow {
	rows := make([]MethodRow, len(lineup))
	n := make([]int, len(lineup))
	for i := range rows {
		rows[i] = MethodRow{Dataset: p.name, Method: lineup[i].name}
	}
	for _, r := range p.lineup(lineup, ref) {
		row := &rows[r.row]
		if r.out == nil {
			row.Failures++
			continue
		}
		row.Delta += r.out.Delta
		row.RelErr += r.relErr()
		row.TimeMS += r.ms
		n[r.row]++
	}
	for i := range rows {
		rows[i].Delta = mean(rows[i].Delta, n[i])
		rows[i].RelErr = mean(rows[i].RelErr, n[i])
		rows[i].TimeMS = mean(rows[i].TimeMS, n[i])
	}
	return rows
}

// Fig5Result carries the per-dataset method rows backing Figures 5(a)-(c).
type Fig5Result struct {
	Rows []MethodRow
}

// Fig5 runs the homogeneous effectiveness/efficiency comparison of
// Figures 5(a)-(c): attribute distance δ, relative error of δ, and response
// time for every method on every homogeneous dataset analog. E-VAC runs only
// on the two smallest datasets, as in the paper.
func Fig5(cfg Config, w io.Writer) (*Fig5Result, error) {
	res := &Fig5Result{}
	for i, name := range dataset.HomogeneousNames {
		rows, err := cfg.RunMethods(name, i < 2) // Facebook and GitHub analogs only
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, rows...)
	}
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
	Dataset                    string
	S1MS, S2MS, S3MS           float64
	GqSize, SampleSize, Rounds float64 // per-query means, as the step times
	SatisfiedCount             int
}

// Fig5d measures SEA's three pipeline steps (S1 sampling, S2 estimation,
// S3 incremental sampling) per dataset.
func Fig5d(cfg Config, w io.Writer) ([]Fig5dRow, error) {
	seaOnly := []lineupRow{{"SEA", cfg.request(query.MethodSEA, sea.KCore)}}
	var rows []Fig5dRow
	for _, name := range dataset.HomogeneousNames {
		p, err := homogeneous(cfg, name)
		if err != nil {
			return nil, err
		}
		row := Fig5dRow{Dataset: name}
		n := 0
		for _, r := range p.lineup(seaOnly, -1) {
			if r.out == nil {
				continue
			}
			res := r.out.SEA
			row.S1MS += ms(res.Steps.Sampling)
			row.S2MS += ms(res.Steps.Estimation)
			row.S3MS += ms(res.Steps.Incremental)
			row.GqSize += float64(res.GqSize)
			row.SampleSize += float64(res.SampleSize)
			row.Rounds += float64(len(res.Rounds))
			if res.Satisfied {
				row.SatisfiedCount++
			}
			n++
		}
		row.S1MS, row.S2MS, row.S3MS = mean(row.S1MS, n), mean(row.S2MS, n), mean(row.S3MS, n)
		row.GqSize, row.SampleSize, row.Rounds = mean(row.GqSize, n), mean(row.SampleSize, n), mean(row.Rounds, n)
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Figure 5(d): SEA per-step time (ms)",
		Header: []string{"dataset", "S1 sampling", "S2 estimation", "S3 incremental", "|Gq|", "|S|", "rounds", "satisfied"},
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Dataset, fmtF(row.S1MS), fmtF(row.S2MS), fmtF(row.S3MS),
			fmt.Sprintf("%.0f", row.GqSize), fmt.Sprintf("%.0f", row.SampleSize), fmtF(row.Rounds),
			fmt.Sprintf("%d/%d", row.SatisfiedCount, cfg.Queries),
		})
	}
	t.Render(w)
	return rows, nil
}
