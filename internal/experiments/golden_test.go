package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

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

// TestLineupMatchesGolden pins every line-up row to the one recorded at
// commit 243d41e, when each method was a hand-written closure over the
// solver packages: answering the rows with a query.Request through query.Run
// must change how the line-up is written, never what it reports. A
// deliberate change of a method's answers re-records the file by writing
// lineupGolden's output over it.
func TestLineupMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "lineup-quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := lineupGolden(t)
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
