// Command seabench regenerates the paper's tables and figures on the
// synthetic dataset analogs.
//
// Usage:
//
//	seabench [-exp table1,fig5,...|all] [-scale 0.5] [-queries 20] [-k 6]
//	seabench -exp fig5,scalability -out BENCH_fig5.json
//	seabench -out BENCH_5.json -compare BENCH_4.json
//
// Experiments: table1, fig5, fig5d, table2, table3, fig6, table4, table5,
// fig7, fig8, table6, fig10, scalability.
//
// -out additionally writes one machine-readable record per
// experiment — name, wall time, mean δ where the experiment measures one,
// and the full typed result rows. The repository convention is to commit
// one such file per performance-relevant PR as BENCH_<pr>.json (produced by
// `make bench-json`), forming a recorded perf trajectory.
//
// -compare reads a previous run's records and, after this run, prints a
// per-experiment wall-clock ratio table (new/old; below 1.0 is faster), so
// regressions against the committed trajectory are one command away
// (`make bench-compare`). The process exits 0 regardless of ratios — the
// judgment call stays with the reader; CI-enforced regression bounds live
// in the BenchmarkSubstrate alloc guards instead, which are not subject to
// machine-speed noise.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// runner dispatches one experiment by name; fn returns the experiment's
// typed result rows for the -out export.
type runner struct {
	name string
	desc string
	fn   func(experiments.Config, io.Writer) (any, error)
}

func wrap[T any](fn func(experiments.Config, io.Writer) (T, error)) func(experiments.Config, io.Writer) (any, error) {
	return func(cfg experiments.Config, w io.Writer) (any, error) {
		return fn(cfg, w)
	}
}

// benchRecord is one experiment's machine-readable outcome.
type benchRecord struct {
	Experiment  string  `json:"experiment"`
	WallSeconds float64 `json:"wall_seconds"`
	// MeanDelta is the mean attribute distance δ over the experiment's
	// method rows, when the experiment measures δ at all.
	MeanDelta *float64 `json:"mean_delta,omitempty"`
	Result    any      `json:"result,omitempty"`
}

// meanDelta extracts the mean δ from the result shapes that carry one
// (today only Fig5's method rows measure δ directly).
func meanDelta(result any) *float64 {
	r, ok := result.(*experiments.Fig5Result)
	if !ok || len(r.Rows) == 0 {
		return nil
	}
	rows := r.Rows
	sum := 0.0
	for _, row := range rows {
		sum += row.Delta
	}
	m := sum / float64(len(rows))
	return &m
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: it parses args, writes the tables and reports
// to stdout and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("seabench", flag.ContinueOnError)
	var (
		exps    = fs.String("exp", "all", "comma-separated experiments or 'all'")
		scale   = fs.Float64("scale", 0.5, "dataset scale factor (1.0 = full profile sizes)")
		queries = fs.Int("queries", 10, "queries per dataset (paper: 200)")
		k       = fs.Int("k", 6, "structural parameter k")
		seed    = fs.Int64("seed", 42, "random seed")
		budget  = fs.Int64("budget", 30000, "state budget for the exact reference")
		outFile = fs.String("out", "", "write machine-readable results to this file (convention: BENCH_<pr>.json)")
		compare = fs.String("compare", "", "prior BENCH_*.json to print per-experiment wall-clock ratios against")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var oldRecords []benchRecord
	if *compare != "" {
		var err error
		oldRecords, err = readJSONRecords(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seabench: -compare: %v\n", err)
			return 2
		}
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.K = *k
	cfg.Seed = *seed
	cfg.ExactBudget = *budget

	runners := []runner{
		{"table1", "dataset statistics", wrap(experiments.Table1)},
		{"fig5", "effectiveness & efficiency (Fig 5a-c)", wrap(experiments.Fig5)},
		{"fig5d", "SEA step breakdown", wrap(experiments.Fig5d)},
		{"table2", "cross-metric cohesiveness", wrap(experiments.Table2)},
		{"table3", "F1 vs ground truth", wrap(experiments.Table3)},
		{"fig6", "F1 per ego network", wrap(experiments.Fig6)},
		{"table4", "pruning ablation", wrap(experiments.Table4)},
		{"table5", "heterogeneous + truss", wrap(experiments.Table5)},
		{"fig7", "size-bounded CS", wrap(experiments.Fig7)},
		{"fig8", "parameter sensitivity", wrap(experiments.Fig8)},
		{"table6", "case study rounds", wrap(experiments.Table6)},
		{"fig10", "effect of gamma", wrap(experiments.Fig10)},
		{"scalability", "SEA vs Exact as the graph grows", wrap(experiments.Scalability)},
	}

	want := map[string]bool{}
	if *exps != "all" {
		for _, name := range strings.Split(*exps, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for name := range want {
			if !knownExperiment(runners, name) {
				fmt.Fprintf(os.Stderr, "seabench: unknown experiment %q\n", name)
				return 2
			}
		}
	}

	var records []benchRecord
	for _, r := range runners {
		if *exps != "all" && !want[r.name] {
			continue
		}
		fmt.Fprintf(stdout, "\n### %s — %s\n", r.name, r.desc)
		start := time.Now()
		result, err := r.fn(cfg, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seabench: %s: %v\n", r.name, err)
			return 1
		}
		wall := time.Since(start)
		fmt.Fprintf(stdout, "(%s completed in %v)\n", r.name, wall.Round(time.Millisecond))
		records = append(records, benchRecord{
			Experiment:  r.name,
			WallSeconds: wall.Seconds(),
			MeanDelta:   meanDelta(result),
			Result:      result,
		})
	}
	if *outFile != "" {
		if err := writeJSONRecords(*outFile, records); err != nil {
			fmt.Fprintf(os.Stderr, "seabench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d record(s) to %s\n", len(records), *outFile)
	}
	if *compare != "" {
		printComparison(stdout, *compare, oldRecords, records)
	}
	return 0
}

// printComparison renders the per-experiment wall-clock ratio table of this
// run against a previous BENCH_*.json. Experiments present in only one of
// the two runs are listed without a ratio.
func printComparison(w io.Writer, oldPath string, old, cur []benchRecord) {
	oldBy := make(map[string]benchRecord, len(old))
	for _, r := range old {
		oldBy[r.Experiment] = r
	}
	fmt.Fprintf(w, "\n### wall-clock vs %s (ratio < 1.0 is faster)\n", oldPath)
	fmt.Fprintf(w, "%-12s %12s %12s %8s\n", "experiment", "old (s)", "new (s)", "ratio")
	seen := map[string]bool{}
	for _, r := range cur {
		seen[r.Experiment] = true
		o, ok := oldBy[r.Experiment]
		if !ok || o.WallSeconds <= 0 {
			fmt.Fprintf(w, "%-12s %12s %12.3f %8s\n", r.Experiment, "-", r.WallSeconds, "new")
			continue
		}
		fmt.Fprintf(w, "%-12s %12.3f %12.3f %8.2f\n",
			r.Experiment, o.WallSeconds, r.WallSeconds, r.WallSeconds/o.WallSeconds)
	}
	for _, o := range old {
		if !seen[o.Experiment] {
			fmt.Fprintf(w, "%-12s %12.3f %12s %8s\n", o.Experiment, o.WallSeconds, "-", "gone")
		}
	}
}

// readJSONRecords loads a previous run's records; only the experiment names
// and wall times are consulted, so records written by older seabench
// versions with different Result shapes still compare.
func readJSONRecords(path string) ([]benchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []benchRecord
	if err := json.NewDecoder(f).Decode(&records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

func writeJSONRecords(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func knownExperiment(rs []runner, name string) bool {
	for _, r := range rs {
		if r.name == name {
			return true
		}
	}
	return false
}
