package sea

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
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

// twitchNodes are the 64 query nodes of the twitch goldens.
func twitchNodes(d *dataset.Generated, k int) []graph.NodeID { return d.QueryNodes(64, k, 13) }

// population is the benchmark's query order for a cold workload at k: the
// Eligible nodes shuffled by a generator seeded 7.
func population(d *dataset.Generated, k int) []graph.NodeID {
	el := d.Eligible(k)
	rand.New(rand.NewSource(7)).Shuffle(len(el), func(i, j int) { el[i], el[j] = el[j], el[i] })
	return el
}

// coldNodes returns the first n query nodes of the benchmark's cold
// workload at k, whose i-th request at seed 1 has SEA seed 1_000_004 + i. On
// twitter at scale 1.0 their Gq is a small part of the graph, a regime the
// twitch goldens (Gq is all of it) never reach. At k-core k = 6 q's maximal
// structure is its planted community of a few dozen nodes; at k = 4 and 3 it
// is, for most of them, a giant core of thousands (README, "Golden
// populations").
func coldNodes(n int) func(*dataset.Generated, int) []graph.NodeID {
	return func(d *dataset.Generated, k int) []graph.NodeID { return population(d, k)[:n] }
}

// goldenAnswers runs one model's searches on a generated dataset, for the
// i-th query node with SEA seed seed0+i, and returns them as one JSON object
// per line, floats in Go's shortest round-tripping form — so equal bytes
// mean bit-equal answers.
func goldenAnswers(t *testing.T, name string, scale float64, nodes func(*dataset.Generated, int) []graph.NodeID, seed0 int64, model Model, k int) []byte {
	t.Helper()
	d, err := dataset.Homogeneous(name, scale)
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
	for i, q := range nodes(d, k) {
		opts.Seed = seed0 + int64(i)
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
			// The loop's exit rule, the same for both models: an unsatisfied
			// search ran every round or drew all of Gq, or built no Gq
			// because its walk first closed on q's maximal structure.
			if !res.Satisfied && len(res.Rounds) != opts.MaxRounds && res.SampleSize != res.GqSize && res.GqSize != 0 {
				t.Errorf("line %d (q=%d seed=%d): unsatisfied after %d of %d rounds with |S| %d of |Gq| %d",
					i+1, q, opts.Seed, len(res.Rounds), opts.MaxRounds, res.SampleSize, res.GqSize)
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
// draw, and again when S2's interval became a closed form (stats.MeanCI)
// and stopped drawing from the generator. The twitter file was first
// recorded before the k-core round stopped maintaining the whole sample's
// core, the twitter k = 4 file before the stop below. The three k-core
// files were re-recorded when the loop began to stop after a k-core round
// whose structure is provably q's whole maximal k-core in G, and Gq to
// double only for a round that draws from it. No answer changed then:
// Community, δ, the interval and Satisfied kept their bytes, Rounds became
// a prefix of what it was, and GqSize and SampleSize could only fall. The
// twitter k-core k = 3 and k-truss k = 5 files were recorded before Gq
// stopped doubling once the sample had used it up, and the four twitter
// files re-recorded after, under the same rule: no answer changed, and the
// twitch files kept their bytes (Gq is q's whole component there). The
// twitch k-core k = 4 file was recorded while that proof still stopped the
// loop, and kept its bytes when the proof was deleted; the twitch k-core
// k = 6 file was re-recorded then. Ten of its searches run the rounds the
// proof had skipped: Rounds grows by rounds that repeat the last δ and
// margin, SampleSize grows to |Gq| on nine of them, and every other field
// kept its bytes. All seven were re-recorded when the default λ became 1:
// every search became one round on all of Gq, and the answers the draw had
// chosen a subset of Gq for changed (CHANGES.md lists them per file). A
// deliberate change of the algorithm's trajectory re-records them:
//
//	go test ./internal/sea -run TestGoldenAnswers -update-golden
func TestGoldenAnswers(t *testing.T) {
	for _, tc := range []struct {
		file    string
		dataset string
		scale   float64
		nodes   func(*dataset.Generated, int) []graph.NodeID
		seed0   int64
		model   Model
		k       int
	}{
		{"golden-twitch-truss-k5.json", "twitch", 0.25, twitchNodes, 1000, KTruss, 5},
		{"golden-twitch-core-k6.json", "twitch", 0.25, twitchNodes, 1000, KCore, 6},
		{"golden-twitch-core-k4.json", "twitch", 1.0, coldNodes(16), 1_000_004, KCore, 4},
		{"golden-twitter-core-k6.json", "twitter", 1.0, coldNodes(32), 1_000_004, KCore, 6},
		{"golden-twitter-core-k4.json", "twitter", 1.0, coldNodes(32), 1_000_004, KCore, 4},
		{"golden-twitter-core-k3.json", "twitter", 1.0, coldNodes(16), 1_000_004, KCore, 3},
		{"golden-twitter-truss-k5.json", "twitter", 1.0, coldNodes(32), 1_000_004, KTruss, 5},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("testdata", tc.file)
			got := goldenAnswers(t, tc.dataset, tc.scale, tc.nodes, tc.seed0, tc.model, tc.k)
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
				reportGoldenDiff(t, got, want)
			}
		})
	}
}

// goldenDiffShown is how many differing lines reportGoldenDiff prints in
// full; the rest are listed by number.
const goldenDiffShown = 5

// reportGoldenDiff fails t with the whole difference between got and want:
// every differing line by number, the first few in full, and the line
// counts when they differ, so a trajectory change shows its extent before a
// re-record.
func reportGoldenDiff(t *testing.T, got, want []byte) {
	t.Helper()
	split := func(b []byte) [][]byte { return bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) }
	gl, wl := split(got), split(want)
	var lines []int
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			lines = append(lines, i+1)
			if len(lines) <= goldenDiffShown {
				t.Errorf("line %d: got %s, recorded %s", i+1, gl[i], wl[i])
			}
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, recorded %d", len(gl), len(wl))
	}
	t.Fatalf("%d of %d recorded lines differ: %v", len(lines), len(wl), lines)
}
