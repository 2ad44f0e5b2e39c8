package sea

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-*.json from the current output")

// goldenAnswer is a Result minus its wall times: everything a search returns
// that is a function of (graph, q, options) alone.
type goldenAnswer struct {
	Q           graph.NodeID
	Seed        int64
	NoCommunity bool `json:",omitempty"`
	Community   []graph.NodeID
	Delta       float64
	Center      float64
	MoE         float64
	Satisfied   bool
	Rounds      []goldenRound
	GqSize      int
	SampleSize  int
}

type goldenRound struct {
	Delta, MoE float64
	DeltaS     int
}

// goldenAnswers runs the 64 fixed (q, seed) searches of one model on twitch
// at scale 0.25 and returns them as one JSON object per line, floats in Go's
// shortest round-tripping form — so equal bytes mean bit-equal answers.
func goldenAnswers(t *testing.T, model Model, k int) []byte {
	t.Helper()
	d, err := dataset.Homogeneous("twitch", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	m, err := attr.NewMetric(d.Graph, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Model = model
	opts.K = k
	var out bytes.Buffer
	for i, q := range d.QueryNodes(64, k, 13) {
		opts.Seed = int64(1000 + i)
		a := goldenAnswer{Q: q, Seed: opts.Seed}
		res, err := search(d.Graph, m, q, opts)
		switch {
		case errors.Is(err, ErrNoCommunity):
			a.NoCommunity = true
		case err != nil:
			t.Fatalf("q=%d seed=%d: %v", q, opts.Seed, err)
		default:
			a.Community, a.Delta = res.Community, res.Delta
			a.Center, a.MoE, a.Satisfied = res.CI.Center, res.CI.MoE, res.Satisfied
			a.GqSize, a.SampleSize = res.GqSize, res.SampleSize
			for _, r := range res.Rounds {
				a.Rounds = append(a.Rounds, goldenRound{r.Delta, r.MoE, r.DeltaS})
			}
		}
		line, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// TestGoldenAnswers pins SEA's answers per (q, seed): a change to how fast a
// search runs must not change what it returns. The files were first recorded
// at commit 4a5ddf3 (before the one-pass k-truss extraction, which kept them
// byte for byte) and re-recorded once, when BLB started drawing from the
// search's own generator and the loop stopped running rounds with nothing to
// draw. A deliberate change of the algorithm's trajectory re-records them:
//
//	go test ./internal/sea -run TestGoldenAnswers -update-golden
func TestGoldenAnswers(t *testing.T) {
	for _, tc := range []struct {
		file  string
		model Model
		k     int
	}{
		{"golden-twitch-truss-k5.json", KTruss, 5},
		{"golden-twitch-core-k6.json", KCore, 6},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			got := goldenAnswers(t, tc.model, tc.k)
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
			if !bytes.Equal(got, want) {
				gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("line %d: got %s, recorded %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("got %d lines, recorded %d", len(gl), len(wl))
			}
		})
	}
}
