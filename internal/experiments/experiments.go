// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the synthetic dataset analogs. Each runner returns
// structured rows and renders a plain-text table, so the same code backs the
// seabench command, the benchmark suite, and EXPERIMENTS.md.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
)

// Config controls experiment scale so the full suite runs in minutes rather
// than the paper's server-days.
type Config struct {
	Scale       float64 // dataset scale factor (1.0 = default profile sizes)
	Queries     int     // queries per dataset (paper: 200)
	K           int     // structural parameter
	Gamma       float64 // attribute balance factor
	ErrorBound  float64 // e
	Confidence  float64 // 1−α
	ExactBudget int64   // MaxStates for the exact reference on large cores
	Seed        int64
}

// Default mirrors the paper's defaults at laptop scale.
func Default() Config {
	return Config{
		Scale:       1.0,
		Queries:     20,
		K:           6,
		Gamma:       0.5,
		ErrorBound:  0.02,
		Confidence:  0.95,
		ExactBudget: 30000,
		Seed:        42,
	}
}

// Quick is a miniature configuration for tests and smoke benches.
func Quick() Config {
	c := Default()
	c.Scale = 0.15
	c.Queries = 4
	c.ExactBudget = 8000
	return c
}

// request is the query every line-up row starts from: the experiment's k,
// accuracy parameters and seed, the state budget of the exact reference and
// E-VAC, and three sampling rounds — which keep the whole suite minutes-fast;
// the paper observes convergence within two. query.Run neutralizes whatever
// the row's method ignores.
func (c Config) request(method query.Method, model sea.Model) query.Request {
	return query.Request{
		Method:     method,
		Model:      model,
		K:          c.K,
		ErrorBound: c.ErrorBound,
		Confidence: c.Confidence,
		Seed:       c.Seed,
		MaxRounds:  3,
		MaxStates:  c.ExactBudget,
	}
}

// lineupRow is one method of a §VII line-up: its display name and the
// Request that runs it, Query left for answer to fill per query node.
type lineupRow struct {
	name string
	req  query.Request
}

// answer runs req for query node q on g through query.Run, sharing the
// caller's metric; the solver computes f(·,q) itself, inside the caller's
// timer, as a served query does. ok is false when the method returned no
// community. A search that exhausted its state budget counts with the
// best-so-far it returned, as the paper's budgeted exact reference does.
func answer(g graph.Store, m *attr.Metric, q graph.NodeID, req query.Request) (*query.Outcome, bool) {
	// The paper's '-' cells: ACQ maximizes the attributes shared with q, so a
	// query node without textual attributes has no attributed community —
	// the solver would hand back the plain maximal structure.
	if req.Method == query.MethodACQ && len(g.TextAttrs(q)) == 0 {
		return nil, false
	}
	req.Query = q
	out, err := query.Run(context.Background(), g, m, req)
	if err != nil && !errors.Is(err, cserr.ErrBudgetExhausted) {
		return nil, false
	}
	return out, out != nil
}

// MethodRow aggregates one method's behaviour over all queries of a dataset.
type MethodRow struct {
	Dataset  string
	Method   string
	Delta    float64 // mean δ over queries
	RelErr   float64 // mean relative error of δ vs the exact reference (%)
	TimeMS   float64 // mean response time in milliseconds
	Failures int     // queries where the method found no community
}

// homogeneousMethods enumerates the §VII-A method lineup for k-core.
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

// RunMethods evaluates every method on every query of d and aggregates.
// The "Exact" row is the relative-error reference for the others.
func (c Config) RunMethods(d *dataset.Generated, withEVAC bool) ([]MethodRow, error) {
	m, err := attr.NewMetric(d.Graph, c.Gamma)
	if err != nil {
		return nil, err
	}
	queries := d.QueryNodes(c.Queries, c.K, c.Seed)
	lineup := c.homogeneousMethods(withEVAC)
	rows := make([]MethodRow, len(lineup))
	for i := range rows {
		rows[i] = MethodRow{Dataset: d.Spec.Name, Method: lineup[i].name}
	}
	counts := make([]int, len(lineup))
	for _, q := range queries {
		exactDelta := math.NaN()
		outs := make([]*query.Outcome, len(lineup))
		for i, row := range lineup {
			start := time.Now()
			out, ok := answer(d.Graph, m, q, row.req)
			elapsed := time.Since(start)
			if !ok {
				rows[i].Failures++
				continue
			}
			outs[i] = out
			rows[i].TimeMS += ms(elapsed)
			counts[i]++
			if row.req.Method == query.MethodExact {
				exactDelta = out.Delta
			}
		}
		for i, out := range outs {
			if out == nil {
				continue
			}
			rows[i].Delta += out.Delta
			if !math.IsNaN(exactDelta) && exactDelta > 0 {
				rows[i].RelErr += 100 * math.Abs(out.Delta-exactDelta) / exactDelta
			}
		}
	}
	for i := range rows {
		if counts[i] > 0 {
			rows[i].Delta /= float64(counts[i])
			rows[i].RelErr /= float64(counts[i])
			rows[i].TimeMS /= float64(counts[i])
		}
	}
	return rows, nil
}

// F1 computes the F1-score of a community against a ground-truth set.
func F1(community, truth []graph.NodeID) float64 {
	if len(community) == 0 || len(truth) == 0 {
		return 0
	}
	in := make(map[graph.NodeID]bool, len(truth))
	for _, v := range truth {
		in[v] = true
	}
	tp := 0
	for _, v := range community {
		if in[v] {
			tp++
		}
	}
	if tp == 0 {
		return 0
	}
	precision := float64(tp) / float64(len(community))
	recall := float64(tp) / float64(len(truth))
	return 2 * precision * recall / (precision + recall)
}

// Table is a simple fixed-width text table used by every runner.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Caption != "" {
		fmt.Fprintln(w, t.Caption)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtF renders a float with sensible precision for tables.
func fmtF(x float64) string {
	switch {
	case math.IsNaN(x):
		return "-"
	case x != 0 && math.Abs(x) < 0.01:
		return fmt.Sprintf("%.2e", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// rank returns 1-based ranks of values (ascending when asc, else descending),
// with ties sharing the better rank, as in Table II.
func rank(values []float64, asc bool) []int {
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if asc {
			return values[idx[a]] < values[idx[b]]
		}
		return values[idx[a]] > values[idx[b]]
	})
	ranks := make([]int, len(values))
	for pos, i := range idx {
		if pos > 0 && values[i] == values[idx[pos-1]] {
			ranks[i] = ranks[idx[pos-1]]
		} else {
			ranks[i] = pos + 1
		}
	}
	return ranks
}
