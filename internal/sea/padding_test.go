package sea

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/attr"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// padded is a graph with pad isolated nodes after its own, carrying no text
// and zero numerical attributes: a graph on which a search that costs O(|V|)
// pays for a million nodes it never reaches.
type padded struct {
	*graph.Graph
	pad  int
	zero []float64
}

func (p padded) own(v graph.NodeID) bool { return int(v) < p.Graph.NumNodes() }

func (p padded) NumNodes() int { return p.Graph.NumNodes() + p.pad }

func (p padded) Degree(v graph.NodeID) int {
	if !p.own(v) {
		return 0
	}
	return p.Graph.Degree(v)
}

func (p padded) NeighborsInto(buf *[]graph.NodeID, v graph.NodeID) []graph.NodeID {
	if !p.own(v) {
		return nil
	}
	return p.Graph.NeighborsInto(buf, v)
}

func (p padded) HasEdge(u, v graph.NodeID) bool {
	return p.own(u) && p.own(v) && p.Graph.HasEdge(u, v)
}

func (p padded) TextAttrs(v graph.NodeID) []int32 {
	if !p.own(v) {
		return nil
	}
	return p.Graph.TextAttrs(v)
}

func (p padded) NumAttrs(v graph.NodeID) []float64 {
	if !p.own(v) {
		return p.zero
	}
	return p.Graph.NumAttrs(v)
}

// PaddingCase is twitch and its twin padded with 10⁶ isolated nodes, each
// with a metric on twitch's own normalizer bounds, so f agrees on every node
// the two share. Theorem 10 asks for |Gq| ≥ |V| on twitch (capped at its
// 8 000 nodes) and for ~15 000 nodes on the twin, more than the largest
// component holds (6 673), so on both Gq is q's whole component: the ln n
// term cannot move it, and a search that does only the work its answer reads
// does the same work on both.
type PaddingCase struct {
	Base, Padded   graph.Store
	MBase, MPadded *attr.Metric
	Queries        []PaddingQuery // 20 k-core (k=6) and 20 k-truss (k=5)
}

// PaddingQuery is one search of a PaddingCase.
type PaddingQuery struct {
	Q     graph.NodeID
	Model Model
	K     int
	Seed  int64
	// Lambda and MaxRounds, when positive, replace the default λ and cap on
	// rounds.
	Lambda    float64
	MaxRounds int
}

// PaddingLegs are the settings every PaddingQuery runs at, as its Lambda
// and MaxRounds: the defaults (one round on all of Gq); the paper's λ = 0.2,
// whose searches draw their sample and run S3's rounds; and λ = 0.2 with
// one round, which ends searches in the last resort, q's structure in all of
// g. A pass over V on any of the three paths fails the padding tests.
var PaddingLegs = []PaddingQuery{{}, {Lambda: paperLambda}, {Lambda: paperLambda, MaxRounds: 1}}

// Options returns the search's options.
func (pq PaddingQuery) Options() Options {
	opts := DefaultOptions()
	opts.Model, opts.K, opts.Seed = pq.Model, pq.K, pq.Seed
	if pq.Lambda > 0 {
		opts.Lambda = pq.Lambda
	}
	if pq.MaxRounds > 0 {
		opts.MaxRounds = pq.MaxRounds
	}
	return opts
}

// PaddedTwitch builds the PaddingCase. It is exported for the package's
// external tests, which measure query.Run on it.
func PaddedTwitch(t testing.TB) *PaddingCase {
	t.Helper()
	d, err := dataset.Homogeneous("twitch", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph
	pad := padded{Graph: g, pad: 1_000_000, zero: make([]float64, g.NumDim())}
	mBase, err := attr.NewMetric(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mPad, err := attr.NewMetricWithNormalizer(pad, 0.5, mBase.Normalizer())
	if err != nil {
		t.Fatal(err)
	}
	c := &PaddingCase{Base: g, Padded: pad, MBase: mBase, MPadded: mPad}
	for _, mk := range []struct {
		model Model
		k     int
	}{{KCore, 6}, {KTruss, 5}} {
		for i, q := range d.QueryNodes(20, mk.k, 29) {
			c.Queries = append(c.Queries, PaddingQuery{Q: q, Model: mk.model, K: mk.k, Seed: int64(i + 1)})
		}
	}
	return c
}

// searchWork is what one search returned and what it cost.
type searchWork struct {
	answer     []byte // the Result without its wall times
	evals      int    // f(·,q) evaluations: the lazy view's computed set
	reads      int    // neighbour lists read
	sampled    int    // nodes in the sample's membership
	lastResort bool   // no round estimated a candidate
}

// work runs pq on g with f from m, checking that Gq is q's whole component.
func work(t *testing.T, g graph.Store, m *attr.Metric, pq PaddingQuery) searchWork {
	t.Helper()
	cg := &countingCSR{Adjacency: g}
	s := newRun(context.Background(), cg, pq.Q, pq.Options())
	defer s.w.Release()
	s.f = m.View(pq.Q, &s.w.Dist)
	minGq, err := s.minGqSize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatalf("%+v: %v", pq, err)
	}
	if res.GqSize >= minGq {
		t.Fatalf("%+v: |Gq| = %d of the %d Theorem 10 asks for; the case needs q's whole component", pq, res.GqSize, minGq)
	}
	lastResort := true
	res.Steps = StepTimes{}
	for i, r := range res.Rounds {
		res.Rounds[i].Time = 0
		if r.MoE != 0 || r.Delta != 0 {
			lastResort = false
		}
	}
	answer, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	// A search that walked first built no sample membership: its sample is
	// the structure.
	sampled := res.SampleSize
	if res.GqSize > 0 {
		sampled = s.w.Sampled.Len()
	}
	return searchWork{answer: answer, evals: s.w.Dist.Done.Len(), reads: cg.reads, sampled: sampled, lastResort: lastResort}
}

// TestPaddingAddsNoWork: a million nodes no search reaches change neither a
// search's answer nor its work — its f(·,q) evaluations, its neighbour
// reads and the nodes it puts in its sample — on any of PaddingLegs.
// Evaluating f over all of V, or any other per-search pass over V, fails
// it.
func TestPaddingAddsNoWork(t *testing.T) {
	c := PaddedTwitch(t)
	for _, leg := range PaddingLegs {
		lastResorts := 0
		for _, pq := range c.Queries {
			pq.Lambda, pq.MaxRounds = leg.Lambda, leg.MaxRounds
			base := work(t, c.Base, c.MBase, pq)
			pad := work(t, c.Padded, c.MPadded, pq)
			if string(base.answer) != string(pad.answer) {
				t.Errorf("%+v: answers differ:\n  twitch: %s\n  padded: %s", pq, base.answer, pad.answer)
			}
			if base.evals != pad.evals || base.reads != pad.reads || base.sampled != pad.sampled {
				t.Errorf("%+v: f evaluations %d → %d, neighbour reads %d → %d, sampled nodes %d → %d",
					pq, base.evals, pad.evals, base.reads, pad.reads, base.sampled, pad.sampled)
			}
			if base.evals >= c.Base.NumNodes() {
				t.Errorf("%+v: %d f evaluations on a %d-node graph", pq, base.evals, c.Base.NumNodes())
			}
			if base.lastResort {
				lastResorts++
			}
		}
		opts := leg.Options()
		t.Logf("λ %v, MaxRounds %d: %d of %d searches took the last resort", opts.Lambda, opts.MaxRounds, lastResorts, len(c.Queries))
		if leg.MaxRounds == 1 && lastResorts == 0 {
			t.Errorf("MaxRounds 1: no search took the last resort; the leg checks nothing")
		}
	}
}
