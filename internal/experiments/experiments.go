// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the synthetic dataset analogs. Each runner returns
// structured rows and renders a plain-text table, so the same code backs the
// seabench command and the benchmark suite.
//
// Every runner has the same shape. A population is one graph — a
// homogeneous analog, an ego network or a meta-path projection — with its
// metric at one γ and the query nodes the Config draws on it. A line-up is a
// list of query.Request rows; population.lineup runs it over every query
// node and yields one record per search (q, row, outcome or nil, wall time,
// and the δ of a reference row where the runner names one). A runner is a
// reduction of those records to its rows. Table IV alone calls exact
// directly, because a Request cannot carry the pruning switches.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

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

// paperLambda is the paper's initial sampling fraction (§VII-A). The
// experiments pin it so that each figure stays a reproduction: the library's
// default is λ = 1 (sea.DefaultOptions).
const paperLambda = 0.2

// request is the query every line-up row starts from: the experiment's k,
// accuracy parameters and seed, the paper's λ, the state budget of the exact
// reference and E-VAC, and three sampling rounds — which keep the whole
// suite minutes-fast; the paper observes convergence within two. query.Run
// neutralizes whatever the row's method ignores.
func (c Config) request(method query.Method, model sea.Model) query.Request {
	return query.Request{
		Method:     method,
		Model:      model,
		K:          c.K,
		ErrorBound: c.ErrorBound,
		Confidence: c.Confidence,
		Seed:       c.Seed,
		Lambda:     paperLambda,
		MaxRounds:  3,
		MaxStates:  c.ExactBudget,
	}
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
