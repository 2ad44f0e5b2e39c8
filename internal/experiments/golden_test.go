package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/lineup-quick.golden from the current output")

// lineupGolden runs the two method line-ups of the Quick configuration — the
// homogeneous one behind Figure 5 (RunMethods, E-VAC on the two smallest
// datasets) and the heterogeneous one behind Table V (runHetMethods) — and
// returns their result rows, wall times zeroed, as one JSON object per line
// with floats in Go's shortest round-tripping form: equal bytes mean
// bit-equal rows.
func lineupGolden(t *testing.T) []byte {
	t.Helper()
	cfg := Quick()
	fig5, err := Fig5(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	table5, err := Table5(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, r := range fig5.Rows {
		r.TimeMS = 0
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range table5 {
		r.TimeMS = 0
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestLineupMatchesGolden pins every line-up row: a change to how the line-up
// is written must not change what it reports. First recorded at commit
// 243d41e, when each method was a hand-written closure over the solver
// packages; the SEA rows were re-recorded once, with internal/sea's golden
// answers. A deliberate change of a method's answers re-records the file:
//
//	go test ./internal/experiments -run TestLineupMatchesGolden -update-golden
func TestLineupMatchesGolden(t *testing.T) {
	path := filepath.Join("testdata", "lineup-quick.golden")
	got := lineupGolden(t)
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
			t.Fatalf("line %d: got %s, recorded %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
}
