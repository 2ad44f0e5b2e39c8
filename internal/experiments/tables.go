package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/attr"
	"repro/internal/baselines"
	"repro/internal/dataset"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/query"
	"repro/internal/sea"
)

// Table1Row is one dataset-statistics row of Table I.
type Table1Row struct {
	Name           string
	Nodes, Edges   int
	NTypes, ETypes int
	DMax           int
	DAvg           float64
	KMax           int32
	KAvg           float64
}

// Table1 generates every dataset analog and reports the Table-I statistics.
func Table1(cfg Config, w io.Writer) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range dataset.HomogeneousNames {
		d, err := dataset.Homogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		kmax, kavg := kcore.MaxCoreness(d.Graph)
		rows = append(rows, Table1Row{
			Name: name, Nodes: d.Graph.NumNodes(), Edges: d.Graph.NumEdges(),
			NTypes: 1, ETypes: 1,
			DMax: d.Graph.MaxDegree(), DAvg: d.Graph.AvgDegree(),
			KMax: kmax, KAvg: kavg,
		})
	}
	for _, name := range dataset.HetNames {
		d, err := dataset.Heterogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		proj, err := d.Het.Project(d.Path)
		if err != nil {
			return nil, err
		}
		kmax, kavg := kcore.MaxCoreness(proj.Graph)
		maxDeg, sumDeg := 0, 0
		for v := 0; v < d.Het.NumNodes(); v++ {
			ns, _ := d.Het.Neighbors(graph.NodeID(v))
			if len(ns) > maxDeg {
				maxDeg = len(ns)
			}
			sumDeg += len(ns)
		}
		rows = append(rows, Table1Row{
			Name: name, Nodes: d.Het.NumNodes(), Edges: d.Het.NumEdges(),
			NTypes: d.Het.NumNodeTypes(), ETypes: d.Het.NumEdgeTypes(),
			DMax: maxDeg, DAvg: float64(sumDeg) / float64(d.Het.NumNodes()),
			KMax: kmax, KAvg: kavg,
		})
	}
	t := &Table{
		Title:   "Table I: dataset statistics (synthetic analogs)",
		Header:  []string{"dataset", "#nodes", "#edges", "#n-types", "#e-types", "dmax", "davg", "kmax", "kavg"},
		Caption: "kmax/kavg for heterogeneous analogs are over the meta-path projection.",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, fmt.Sprint(r.Nodes), fmt.Sprint(r.Edges),
			fmt.Sprint(r.NTypes), fmt.Sprint(r.ETypes),
			fmt.Sprint(r.DMax), fmt.Sprintf("%.2f", r.DAvg),
			fmt.Sprint(r.KMax), fmt.Sprintf("%.2f", r.KAvg),
		})
	}
	t.Render(w)
	return rows, nil
}

// Table2Row scores one method under all four attribute-cohesiveness metrics
// of Table II, with per-metric ranks and the total rank.
type Table2Row struct {
	Method    string
	MinMax    float64 // VAC's objective (lower better)
	Coverage  float64 // ATC's objective (higher better)
	Shared    float64 // ACQ's objective, normalized per node (higher better)
	Delta     float64 // ours (lower better)
	Ranks     [4]int
	TotalRank int
}

// Table2 evaluates every method's community under every metric on the
// Facebook analog.
func Table2(cfg Config, w io.Writer) ([]Table2Row, error) {
	d, err := dataset.Homogeneous("facebook", cfg.Scale)
	if err != nil {
		return nil, err
	}
	m, err := attr.NewMetric(d.Graph, cfg.Gamma)
	if err != nil {
		return nil, err
	}
	lineup := cfg.homogeneousMethods(true)
	queries := d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed)
	rows := make([]Table2Row, len(lineup))
	counts := make([]int, len(lineup))
	for i := range rows {
		rows[i].Method = lineup[i].name
	}
	for _, q := range queries {
		qAttrs := d.Graph.TextAttrs(q)
		for i, row := range lineup {
			out, ok := answer(d.Graph, m, q, row.req)
			if !ok {
				continue
			}
			members := out.Community
			counts[i]++
			rows[i].MinMax += m.MaxPairwise(members)
			rows[i].Coverage += baselines.CoverageScore(d.Graph, q, members)
			shared := 0
			for _, v := range members {
				if v != q {
					shared += attr.SharedTokens(d.Graph.TextAttrs(v), qAttrs)
				}
			}
			if len(members) > 1 {
				rows[i].Shared += float64(shared) / float64(len(members)-1) / float64(maxInt(1, len(qAttrs)))
			}
			rows[i].Delta += out.Delta
		}
	}
	minmax := make([]float64, len(rows))
	cover := make([]float64, len(rows))
	sharedV := make([]float64, len(rows))
	deltas := make([]float64, len(rows))
	for i := range rows {
		if counts[i] > 0 {
			rows[i].MinMax /= float64(counts[i])
			rows[i].Coverage /= float64(counts[i])
			rows[i].Shared /= float64(counts[i])
			rows[i].Delta /= float64(counts[i])
		}
		minmax[i], cover[i], sharedV[i], deltas[i] = rows[i].MinMax, rows[i].Coverage, rows[i].Shared, rows[i].Delta
	}
	r1 := rank(minmax, true)
	r2 := rank(cover, false)
	r3 := rank(sharedV, false)
	r4 := rank(deltas, true)
	t := &Table{
		Title:  "Table II: cross-metric attribute cohesiveness (facebook analog)",
		Header: []string{"method", "min-max(VAC)", "coverage(ATC)", "#shared(ACQ)", "δ(ours)", "total rank"},
	}
	for i := range rows {
		rows[i].Ranks = [4]int{r1[i], r2[i], r3[i], r4[i]}
		rows[i].TotalRank = r1[i] + r2[i] + r3[i] + r4[i]
		t.Rows = append(t.Rows, []string{
			rows[i].Method,
			fmt.Sprintf("%s(%d)", fmtF(rows[i].MinMax), r1[i]),
			fmt.Sprintf("%s(%d)", fmtF(rows[i].Coverage), r2[i]),
			fmt.Sprintf("%s(%d)", fmtF(rows[i].Shared), r3[i]),
			fmt.Sprintf("%s(%d)", fmtF(rows[i].Delta), r4[i]),
			fmt.Sprint(rows[i].TotalRank),
		})
	}
	t.Render(w)
	return rows, nil
}

// Table3Row is one dataset's F1 column of Table III.
type Table3Row struct {
	Dataset string
	F1      map[string]float64 // method → mean F1
}

// table3Datasets are the ground-truth datasets of Table III.
var table3Datasets = []string{"facebook", "livejournal", "orkut", "amazon"}

// Table3 computes F1 against the planted ground-truth communities.
func Table3(cfg Config, w io.Writer) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range table3Datasets {
		d, err := dataset.Homogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		row, err := f1ForDataset(cfg, d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	t := &Table{
		Title:  "Table III: F1-score w.r.t. planted ground-truth communities",
		Header: append([]string{"method"}, table3Datasets...),
	}
	for _, meth := range cfg.homogeneousMethods(false) {
		cells := []string{meth.name}
		for _, row := range rows {
			cells = append(cells, fmtF(row.F1[meth.name]))
		}
		t.Rows = append(t.Rows, cells)
	}
	t.Render(w)
	return rows, nil
}

// f1ForDataset runs the method lineup and scores each against ground truth.
func f1ForDataset(cfg Config, d *dataset.Generated) (Table3Row, error) {
	m, err := attr.NewMetric(d.Graph, cfg.Gamma)
	if err != nil {
		return Table3Row{}, err
	}
	lineup := cfg.homogeneousMethods(false)
	row := Table3Row{Dataset: d.Spec.Name, F1: map[string]float64{}}
	counts := map[string]int{}
	for _, q := range d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed) {
		truth := d.GroundTruth(q)
		for _, meth := range lineup {
			out, ok := answer(d.Graph, m, q, meth.req)
			if !ok {
				continue
			}
			row.F1[meth.name] += F1(out.Community, truth)
			counts[meth.name]++
		}
	}
	for k, c := range counts {
		if c > 0 {
			row.F1[k] /= float64(c)
		}
	}
	return row, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Table4Row is one pruning-configuration row of Table IV.
type Table4Row struct {
	Config  string
	Dataset string
	TimeMS  float64
	States  float64 // mean states explored
}

// Table4 runs the exact-search pruning ablation on the two smallest
// homogeneous analogs (the paper uses four datasets). Without pruning the
// search tree is exponential in the core's size, so every configuration runs
// under the state budget and the unpruned ones saturate it: their rows
// compare time per budget, not time to the optimum. It calls exact directly
// because a Request carries the budget but not the pruning switches.
func Table4(cfg Config, w io.Writer) ([]Table4Row, error) {
	configs := []struct {
		name string
		c    exact.Config
	}{
		{"Exact (P1+P2+P3)", exact.Config{PruneDuplicates: true, PruneUnnecessary: true, PruneUnpromising: true, MaxStates: cfg.ExactBudget}},
		{"Exact\\P3 (P1+P2)", exact.Config{PruneDuplicates: true, PruneUnnecessary: true, MaxStates: cfg.ExactBudget}},
		{"Exact\\P3+P2 (P1)", exact.Config{PruneDuplicates: true, MaxStates: cfg.ExactBudget}},
		{"Exact w/o P", exact.Config{MaxStates: cfg.ExactBudget}},
	}
	var rows []Table4Row
	for _, name := range []string{"facebook", "github"} {
		d, err := dataset.Homogeneous(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		m, err := attr.NewMetric(d.Graph, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		queries := d.QueryNodes(cfg.Queries, cfg.K, cfg.Seed)
		for _, c := range configs {
			row := Table4Row{Config: c.name, Dataset: name}
			n := 0
			for _, q := range queries {
				start := time.Now()
				res, err := exact.SearchContext(context.Background(), d.Graph, q, cfg.K, m.QueryDist(q), c.c)
				if err != nil && !errors.Is(err, exact.ErrBudgetExhausted) {
					continue
				}
				row.TimeMS += ms(time.Since(start))
				row.States += float64(res.Stats.States)
				n++
			}
			if n > 0 {
				row.TimeMS /= float64(n)
				row.States /= float64(n)
			}
			rows = append(rows, row)
		}
	}
	t := &Table{
		Title:   "Table IV: effect of pruning strategies on Exact",
		Header:  []string{"config", "dataset", "time ms", "#states"},
		Caption: fmt.Sprintf("state budget %d per query; unpruned configs saturate it", cfg.ExactBudget),
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Config, r.Dataset, fmtF(r.TimeMS), fmt.Sprintf("%.0f", r.States)})
	}
	t.Render(w)
	return rows, nil
}

// Table6Row is one round of the SEA case study (Table VI).
type Table6Row struct {
	SizeLo, SizeHi int
	Round          int
	Delta          float64
	MoE            float64
	DeltaS         int
	TimeMS         float64
}

// Table6 reproduces the case study: size-bounded SEA on the IMDB analog's
// projection, reporting the round-by-round refinement trace.
func Table6(cfg Config, w io.Writer) ([]Table6Row, error) {
	d, err := dataset.Heterogeneous("imdb", cfg.Scale)
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
	hetQ := d.QueryTargets(1, cfg.K, cfg.Seed)[0]
	q := proj.FromHet[hetQ]
	var rows []Table6Row
	for _, bound := range [][2]int{{10, 30}, {30, 50}} {
		req := cfg.request(query.MethodSEA, sea.KCore)
		req.Query = q
		req.SizeLo, req.SizeHi = bound[0], bound[1]
		out, err := query.Run(context.Background(), proj.Graph, m, req)
		if errors.Is(err, sea.ErrNoCommunity) {
			continue
		}
		if err != nil {
			return nil, err
		}
		for _, r := range out.SEA.Rounds {
			rows = append(rows, Table6Row{
				SizeLo: bound[0], SizeHi: bound[1],
				Round: r.Round, Delta: r.Delta, MoE: r.MoE,
				DeltaS: r.DeltaS, TimeMS: ms(r.Time),
			})
		}
	}
	t := &Table{
		Title:  "Table VI: case study — SEA round-by-round (imdb analog)",
		Header: []string{"size bound", "round", "δ*", "MoE ε", "ΔS", "time ms"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("[%d,%d]", r.SizeLo, r.SizeHi),
			fmt.Sprint(r.Round), fmtF(r.Delta), fmtF(r.MoE),
			fmt.Sprint(r.DeltaS), fmtF(r.TimeMS),
		})
	}
	t.Render(w)
	return rows, nil
}
