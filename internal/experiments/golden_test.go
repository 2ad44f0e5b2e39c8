package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current output")

// quickResults is one run of every experiment at the Quick configuration,
// Figures 8 and 10 with two queries per dataset. Every test of the package
// reads the same run, so go test pays for each experiment once.
type quickResults struct {
	table1 []Table1Row
	fig5   *Fig5Result
	fig5d  []Fig5dRow
	table2 []Table2Row
	table3 []Table3Row
	fig6   []Fig6Row
	table4 []Table4Row
	table5 []Table5Row
	fig7   []Fig7Row
	fig8   []SweepPoint
	table6 []Table6Row
	fig10  []Fig10Row
	scale  []ScaleRow
}

var quick struct {
	once sync.Once
	res  quickResults
	err  error
}

// quickRun returns the package's one Quick run, running it on first use.
func quickRun(t *testing.T) *quickResults {
	t.Helper()
	quick.once.Do(func() { quick.res, quick.err = runQuick(quietOrVerbose(t)) })
	if quick.err != nil {
		t.Fatal(quick.err)
	}
	return &quick.res
}

func runQuick(w io.Writer) (r quickResults, err error) {
	cfg := Quick()
	few := cfg
	few.Queries = 2
	keep(&r.table1, &err, Table1, cfg, w)
	keep(&r.fig5, &err, Fig5, cfg, w)
	keep(&r.fig5d, &err, Fig5d, cfg, w)
	keep(&r.table2, &err, Table2, cfg, w)
	keep(&r.table3, &err, Table3, cfg, w)
	keep(&r.fig6, &err, Fig6, cfg, w)
	keep(&r.table4, &err, Table4, cfg, w)
	keep(&r.table5, &err, Table5, cfg, w)
	keep(&r.fig7, &err, Fig7, cfg, w)
	keep(&r.fig8, &err, Fig8, few, w)
	keep(&r.table6, &err, Table6, cfg, w)
	keep(&r.fig10, &err, Fig10, few, w)
	keep(&r.scale, &err, Scalability, cfg, w)
	return r, err
}

// keep runs one experiment into dst unless an earlier one failed.
func keep[T any](dst *T, err *error, run func(Config, io.Writer) (T, error), cfg Config, w io.Writer) {
	if *err == nil {
		*dst, *err = run(cfg, w)
	}
}

// encodeRows appends rows to out as one JSON object per line, floats in Go's
// shortest round-tripping form, so equal bytes mean bit-equal rows. untime
// zeroes a row's wall-time fields and whatever is derived from them.
func encodeRows[T any](t *testing.T, out *bytes.Buffer, rows []T, untime func(*T)) {
	t.Helper()
	enc := json.NewEncoder(out)
	for _, r := range rows {
		if untime != nil {
			untime(&r)
		}
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
}

// matchGolden compares got with testdata/name byte for byte, or rewrites the
// file under -update-golden.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d: got %s, recorded %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, recorded %d", name, len(gl), len(wl))
}

// TestLineupMatchesGolden pins the two method line-ups of the Quick
// configuration — the homogeneous one behind Figure 5 (E-VAC on the two
// smallest datasets) and the heterogeneous one behind Table V — wall times
// zeroed: a change to how the line-up is written must not change what it
// reports. First recorded at commit 243d41e, when each method was a
// hand-written closure over the solver packages; the SEA rows were
// re-recorded twice, each time with internal/sea's golden answers. A
// deliberate change of a method's answers re-records the file:
//
//	go test ./internal/experiments -run TestLineupMatchesGolden -update-golden
func TestLineupMatchesGolden(t *testing.T) {
	r := quickRun(t)
	var out bytes.Buffer
	encodeRows(t, &out, r.fig5.Rows, func(r *MethodRow) { r.TimeMS = 0 })
	encodeRows(t, &out, r.table5, func(r *Table5Row) { r.TimeMS = 0 })
	matchGolden(t, "lineup-quick.golden", out.Bytes())
}

// TestExperimentsMatchGolden pins the rows of the other eleven experiments
// of the Quick run, in seabench's order, with every wall time and the
// speedups derived from them zeroed. A deliberate change of what an
// experiment reports re-records the file:
//
//	go test ./internal/experiments -run TestExperimentsMatchGolden -update-golden
func TestExperimentsMatchGolden(t *testing.T) {
	r := quickRun(t)
	var out bytes.Buffer
	encodeRows(t, &out, r.table1, nil)
	encodeRows(t, &out, r.fig5d, func(r *Fig5dRow) { r.S1MS, r.S2MS, r.S3MS = 0, 0, 0 })
	encodeRows(t, &out, r.table2, nil)
	encodeRows(t, &out, r.table3, nil)
	encodeRows(t, &out, r.fig6, nil)
	encodeRows(t, &out, r.table4, func(r *Table4Row) { r.TimeMS = 0 })
	encodeRows(t, &out, r.fig7, func(r *Fig7Row) { r.TimeMS = 0 })
	encodeRows(t, &out, r.fig8, func(r *SweepPoint) { r.TimeMS = 0 })
	encodeRows(t, &out, r.table6, func(r *Table6Row) { r.TimeMS = 0 })
	encodeRows(t, &out, r.fig10, nil)
	encodeRows(t, &out, r.scale, func(r *ScaleRow) { r.SEAMS, r.ExactMS, r.Speedup = 0, 0, 0 })
	matchGolden(t, "experiments-quick.golden", out.Bytes())
}
