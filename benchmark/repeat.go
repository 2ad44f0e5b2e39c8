package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// Every run is its own process, so caches, heap and resident set never leak
// from one run into the next.

// child runs this binary once for one workload and returns its last line of
// output decoded. Everything else the child prints goes to passthrough when
// it is not nil.
func child(w *workload, seed int64, seconds float64, trace int, smoke bool, outDir string, passthrough *os.File) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", outDir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	if passthrough != nil {
		passthrough.Write(out)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed, err)
	}
	return &res, nil
}

// runAll runs every workload untraced, then traced, and returns the exit code.
func runAll(seed int64, seconds float64, smoke bool, outDir string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := child(w, seed, seconds, trace, smoke, outDir, os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 2
			} else if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

// runRepeat runs one workload n times with seeds seed, seed+1, … and prints,
// per metric, the median, the quartiles and their distance as a share of the
// median — the spread the driver holds against the metric's bound.
func runRepeat(w *workload, n int, seed int64, seconds float64, trace int, smoke bool, outDir string) int {
	specs := endToEnd
	if trace != 0 {
		specs = perLayer
	}
	series := make(map[string][]float64)
	code := 0
	for i := 0; i < n; i++ {
		res, err := child(w, seed+int64(i), seconds, trace, smoke, outDir, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if !res.Correct {
			code = 1
		}
		fmt.Printf("# run %d seed %d: correct=%v attempted=%d failed=%d", i+1, seed+int64(i), res.Correct, res.Attempted, res.Failed)
		for _, s := range specs {
			v := res.Metrics[s.Name].Value
			series[s.Name] = append(series[s.Name], v)
			if trace == 0 {
				fmt.Printf(" %s=%.4g", s.Name, v)
			}
		}
		fmt.Println()
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "%s: %d runs of %g s, seeds %d..%d\n", w.name, n, seconds, seed, seed+int64(n)-1)
	fmt.Fprintf(out, "%-36s %-6s %14s %14s %14s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, s := range specs {
		q1, med, q3 := quartiles(series[s.Name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		bound := ""
		if s.Bound > 0 {
			bound = strconv.FormatFloat(s.Bound, 'g', -1, 64)
			if spread > s.Bound {
				bound += " OVER"
				code = 1
			}
		}
		fmt.Fprintf(out, "%-36s %-6s %14.4f %14.4f %14.4f %8.4f %6s\n", s.Name, s.Unit, q1, med, q3, spread, bound)
	}
	return code
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the driver uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
