// Package sea implements the paper's primary contribution: the index-free
// Sampling-Estimation-based Approximate community search (SEA, §V) with a
// runtime accuracy guarantee, and its extensions to size-bounded search
// (§VI-B) and the k-truss model (§VI-C). Heterogeneous graphs (§VI-A) are
// supported through the target-node projection in internal/hetgraph.
//
// The pipeline follows Figure 4 of the paper:
//
//  1. Sampling (S1): determine the minimum neighborhood size |Gq| from the
//     Hoeffding bound (Theorem 10), build Gq best-first around q, draw an
//     attribute-aware weighted sample S, and extract the maximal connected
//     k-core (or k-truss) of the induced subgraph Gq[S].
//  2. Estimation (S2): estimate δ of the candidate with the interval of the
//     mean of its members' f values, in closed form (stats.MeanCI: the
//     margin the paper's Bag of Little Bootstraps approximates by Monte
//     Carlo); terminate early once the Theorem-11 stopping rule
//     ε ≤ δ*·e/(1+e) holds; otherwise greedily peel the most dissimilar node
//     and re-estimate. This step draws nothing from the search's generator.
//  3. Incremental sampling (S3): if no candidate satisfies the rule, enlarge
//     the sample by the error-driven |ΔS| of Eq. 12 and repeat, and stop when
//     there is nothing left to draw.
package sea

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/attr"
	"repro/internal/cohesive"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/truss"
	"repro/internal/ws"
)

// Model selects the structure-cohesiveness model.
type Model int

// Supported community models.
const (
	KCore  Model = iota // connected k-core (default)
	KTruss              // connected k-truss (§VI-C)
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case KCore:
		return "k-core"
	case KTruss:
		return "k-truss"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// MinSize is the model's structural floor on a community's size, q included:
// a k-core member has k neighbours inside, a k-truss member k−1.
func (m Model) MinSize(k int) int {
	if m == KTruss {
		return k
	}
	return k + 1
}

// MarshalText renders the model in the wire form ("core" or "truss") used by
// the HTTP API and the CLI, so a Model round-trips through JSON.
func (m Model) MarshalText() ([]byte, error) {
	switch m {
	case KCore:
		return []byte("core"), nil
	case KTruss:
		return []byte("truss"), nil
	default:
		return nil, fmt.Errorf("sea: unknown model %d", int(m))
	}
}

// UnmarshalText parses the wire form of a model. The empty string selects
// the default (k-core); "core"/"k-core" and "truss"/"k-truss" are accepted.
func (m *Model) UnmarshalText(text []byte) error {
	switch string(text) {
	case "", "core", "k-core":
		*m = KCore
	case "truss", "k-truss":
		*m = KTruss
	default:
		return cserr.Invalidf("unknown model %q (want core or truss)", text)
	}
	return nil
}

// Options configures a SEA search. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	K          int     // structural parameter of the community model
	ErrorBound float64 // e: user-desired relative error bound
	Confidence float64 // 1−α for the confidence interval
	Lambda     float64 // initial sampling fraction of |Gq|
	Eps        float64 // ϵ for the Hoeffding bound (Theorem 10)
	Beta       float64 // β: 1−β is the containment probability (Theorem 10)
	Model      Model
	// SizeLo and SizeHi, when SizeHi > 0, activate size-bounded search
	// (§VI-B): the returned community has between SizeLo and SizeHi nodes.
	SizeLo, SizeHi int
	// BLB is validated but not read: S2's interval is stats.MeanCI's closed
	// form. The field stays while benchmark/trace.go times stats.BLB with it,
	// and goes with that timing (ROADMAP item 9(c)).
	BLB stats.BLBConfig
	// MaxRounds caps the sampling→estimation→incremental-sampling loop.
	// The paper observes convergence within 2 rounds, 5 in the worst case.
	MaxRounds int
	// NoRefine stops the greedy search at the FIRST candidate satisfying
	// Theorem 11, the paper's literal stopping rule, instead of walking the
	// whole peel trajectory for the smallest δ*. seaRun.estimate says why
	// the default differs and what this is the control for.
	NoRefine bool
	Seed     int64
}

// DefaultOptions mirrors the paper's defaults (§VII-A): k=4, e=2%,
// 1−α = 95%, λ=0.2, ϵ=0.05, 1−β=95%.
func DefaultOptions() Options {
	return Options{
		K:          4,
		ErrorBound: 0.02,
		Confidence: 0.95,
		Lambda:     0.2,
		Eps:        0.05,
		Beta:       0.05,
		Model:      KCore,
		BLB:        stats.DefaultBLB(),
		MaxRounds:  8,
		Seed:       1,
	}
}

// Validate reports option errors. Every error wraps cserr.ErrInvalidRequest.
func (o Options) Validate() error {
	if o.K < 1 {
		return cserr.Invalidf("sea: K must be ≥ 1, got %d", o.K)
	}
	if o.ErrorBound <= 0 || o.ErrorBound >= 1 {
		return cserr.Invalidf("sea: ErrorBound %v outside (0,1)", o.ErrorBound)
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return cserr.Invalidf("sea: Confidence %v outside (0,1)", o.Confidence)
	}
	if o.Lambda <= 0 || o.Lambda > 1 {
		return cserr.Invalidf("sea: Lambda %v outside (0,1]", o.Lambda)
	}
	if o.Eps <= 0 {
		return cserr.Invalidf("sea: Eps must be positive, got %v", o.Eps)
	}
	if o.Beta <= 0 || o.Beta >= 1 {
		return cserr.Invalidf("sea: Beta %v outside (0,1)", o.Beta)
	}
	// A bound that is negative, or a SizeLo without a SizeHi, is rejected
	// outright: either would otherwise slip past the bounded-range check and
	// silently behave as "unbounded".
	if o.SizeLo < 0 || o.SizeHi < 0 {
		return cserr.Invalidf("sea: size bound [%d,%d] negative", o.SizeLo, o.SizeHi)
	}
	if (o.SizeLo > 0 || o.SizeHi > 0) && (o.SizeLo < 1 || o.SizeLo > o.SizeHi) {
		return cserr.Invalidf("sea: size bound [%d,%d] invalid", o.SizeLo, o.SizeHi)
	}
	if o.MaxRounds < 1 {
		return cserr.Invalidf("sea: MaxRounds must be ≥ 1, got %d", o.MaxRounds)
	}
	if err := o.BLB.Validate(); err != nil {
		return cserr.Invalidf("%v", err)
	}
	return nil
}

// StepTimes records per-step wall time: S1 sampling-based maximal structure
// finding, S2 interval estimation, S3 error-based incremental sampling.
type StepTimes struct {
	Sampling    time.Duration // S1
	Estimation  time.Duration // S2
	Incremental time.Duration // S3
}

// Round traces one sampling-estimation round for the Table-VI case study.
type Round struct {
	Round int     // 1-based round number
	Delta float64 // δ* of the best candidate estimated this round
	MoE   float64 // its margin of error ε
	// DeltaS is how many nodes S3 added to the sample before this round: what
	// was drawn, not what Eq. 12 asked for. It is 0 for round 1 and positive
	// for every later round — a round with nothing new to draw is not run.
	DeltaS int
	Time   time.Duration // wall time of the round
}

// Result is the outcome of a SEA search.
type Result struct {
	Community  []graph.NodeID // node IDs in the input graph
	Delta      float64        // δ* of the community
	CI         stats.CI       // confidence interval for δ
	Satisfied  bool           // Theorem-11 stopping rule achieved
	Rounds     []Round        // per-round trace
	Steps      StepTimes
	GqSize     int // |Gq| population size
	SampleSize int // final |S|
}

// ErrNoCommunity is returned when no community satisfying the structural
// (and size) constraints exists around q. It is the shared sentinel of
// internal/cserr, so errors.Is matches it across every search method.
var ErrNoCommunity = cserr.ErrNoCommunity

// SearchContext runs SEA on g for query node q, reading f(·,q) from m
// through a lazy view: f is evaluated at the nodes the search touches — Gq
// and its frontier, and the candidates — never at all |V| of them. The
// sampling-estimation round loop and the greedy peeling both check ctx and
// stop promptly when it is cancelled: an interrupted search returns the best
// candidate found so far (nil when none exists yet) together with an error
// wrapping ctx's error.
func SearchContext(ctx context.Context, g graph.CSR, m *attr.Metric, q graph.NodeID, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := newRun(ctx, g, q, opts)
	defer s.w.Release()
	s.f = m.View(q, &s.w.Dist)
	return s.run()
}

// SearchWithDistContext is SearchContext reading a caller's f(·,q) vector
// (attr.Metric.QueryDist): the same view with every node computed, so the
// answer is the one SearchContext gives. No serving path or experiment calls
// it; it is kept for benchmark/trace.go, which times the search apart from
// f, and for the tests that hold the two paths equal
// (TestVectorPathMatchesLazy).
func SearchWithDistContext(ctx context.Context, g graph.CSR, dist []float64, q graph.NodeID, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := newRun(ctx, g, q, opts)
	defer s.w.Release()
	s.f = attr.VectorView(dist)
	return s.run()
}

// newRun is the one constructor of a search: its generator, from
// Options.Seed, and a workspace the caller releases. The caller sets f.
func newRun(ctx context.Context, g graph.CSR, q graph.NodeID, opts Options) *seaRun {
	return &seaRun{ctx: ctx, g: g, q: q, opts: opts, rng: rand.New(rand.NewSource(opts.Seed)), w: ws.Get()}
}

type seaRun struct {
	ctx  context.Context
	g    graph.CSR
	q    graph.NodeID
	opts Options
	rng  *rand.Rand
	// f is f(·,q): a lazy view on w.Dist, or a caller's whole vector.
	f attr.View

	// w is the pooled scratch substrate threaded through every hot loop:
	// stamped visited/membership sets, the evaluated f values, the frontier
	// heap and visited set of Gq's expansion, sampling keys, the sample's
	// membership and the round's maintainer, and the round loop's own
	// population/sample/candidate buffers. What a warm search still
	// allocates is the generator, each round's maintainer header, the
	// removed-node lists of the peel, the round trace and the returned
	// community.
	w *ws.Workspace

	res Result
}

// interrupted builds the cancelled-search return: the best candidate found
// so far (nil when none) with the context's error wrapped.
func (s *seaRun) interrupted() (*Result, error) {
	err := cserr.Interruptedf(s.ctx.Err(), "sea: search interrupted")
	if s.res.Community == nil {
		return nil, err
	}
	return s.result(), err
}

// result returns the search's Result as its own allocation. Callers keep
// Results for a long time (the engine caches 4 096 of them); a pointer into
// seaRun would keep the run's f view (a caller's vector, or the metric and
// with it the graph), generator and context reachable for as long.
func (s *seaRun) result() *Result {
	res := s.res
	return &res
}

// minGqSize applies Theorem 10 for the active model / size bound.
func (s *seaRun) minGqSize() (int, error) {
	n := s.g.NumNodes()
	switch {
	case s.opts.SizeHi > 0:
		return stats.MinGqSizeSizeBounded(s.opts.Eps, s.opts.Beta, s.opts.SizeLo, n)
	case s.opts.Model == KTruss:
		return stats.MinGqSizeTruss(s.opts.Eps, s.opts.Beta, s.opts.K, n)
	default:
		return stats.MinGqSizeCore(s.opts.Eps, s.opts.Beta, s.opts.K, n)
	}
}

func (s *seaRun) run() (*Result, error) {
	t0 := time.Now()
	minGq, err := s.minGqSize()
	if err != nil {
		return nil, err
	}
	gq, probs := s.buildGq(minGq)
	if s.ctx.Err() != nil {
		return s.interrupted()
	}

	sampleSize := int(s.opts.Lambda * float64(len(gq)))
	if sampleSize < s.opts.K+1 {
		sampleSize = s.opts.K + 1
	}
	sample := sampling.WeightedSampleInto(s.w.Sample[:0], gq, probs, sampleSize, s.q, s.rng, s.w)
	s.w.Sample = sample // keep the backing array pooled even on round-1 exits
	s.w.Sampled.Reset(s.g.NumNodes())
	s.res.Steps.Sampling += time.Since(t0)

	// The last estimated round's best interval and its number of values,
	// Eq. 12's inputs; n is 0 after a round that estimated nothing.
	var last stats.CI
	var lastN int
	for round := 1; round <= s.opts.MaxRounds; round++ {
		if s.ctx.Err() != nil {
			return s.interrupted()
		}
		roundStart := time.Now()
		deltaS := 0
		if round > 1 {
			// S3: error-based incremental sampling (Eq. 12).
			t3 := time.Now()
			ask := stats.IncrementalSampleSize(last.MoE, stats.MoETarget(last.Center, s.opts.ErrorBound), lastN)
			if ask == 0 {
				// Structural miss: no candidate was even estimated, so
				// Eq. 12 has no error signal. Double the sample — small
				// samples of a sparse community rarely preserve its k-core.
				ask = len(sample)
			}
			sample = s.enlarge(gq, probs, sample, ask)
			s.w.Sample = sample // keep the grown backing array pooled
			deltaS = len(sample) - s.res.SampleSize
			s.res.Steps.Incremental += time.Since(t3)
			if deltaS == 0 {
				// The one stop rule besides Theorem 11 and MaxRounds: S3 drew
				// nothing, so the sample is all of a Gq that cannot grow — q's
				// whole component — and this round would estimate exactly what
				// the last one did.
				break
			}
		}
		added := sample[s.res.SampleSize:] // round 1: the whole first sample
		s.res.SampleSize = len(sample)
		if len(sample) >= len(gq) && len(gq) == minGq {
			// Sample exhausted the population: enlarge Gq itself for the next
			// round to draw from. A Gq shorter than it was asked to be is
			// q's whole component and is never rebuilt.
			t1 := time.Now()
			minGq *= 2
			gq, probs = s.buildGq(minGq)
			s.res.Steps.Sampling += time.Since(t1)
		}

		// S1: maximal connected structure within the induced sample.
		maint := s.extract(added)
		if s.ctx.Err() != nil {
			return s.interrupted()
		}
		if maint == nil {
			// No structure containing q in this sample; try a larger one.
			lastN = 0
			s.res.Rounds = append(s.res.Rounds, Round{Round: round, DeltaS: deltaS, Time: time.Since(roundStart)})
			continue
		}

		// S2: greedy candidate search with interval estimation.
		t2 := time.Now()
		done, ci, n := s.estimate(maint)
		s.res.Steps.Estimation += time.Since(t2)
		s.res.Rounds = append(s.res.Rounds, Round{
			Round: round, Delta: ci.Center, MoE: ci.MoE, DeltaS: deltaS, Time: time.Since(roundStart),
		})
		if s.ctx.Err() != nil {
			return s.interrupted()
		}
		if done {
			s.res.CI = ci
			s.res.Satisfied = true
			return s.result(), nil
		}
		s.res.CI = ci
		last, lastN = ci, n
	}
	if s.res.Community == nil {
		// Last resort: sampling never preserved a qualifying structure
		// (typical when community cores are small relative to λ·|Gq|), so
		// sample the rest of the graph and run the greedy estimation on its
		// maximal structure. SampleSize stays what the rounds drew.
		rest := len(sample)
		for v := graph.NodeID(0); int(v) < s.g.NumNodes(); v++ {
			if !s.w.Sampled.Has(v) {
				sample = append(sample, v)
			}
		}
		s.w.Sample = sample
		maint := s.extract(sample[rest:])
		if s.ctx.Err() != nil {
			return s.interrupted()
		}
		if maint == nil {
			return nil, ErrNoCommunity
		}
		t2 := time.Now()
		done, ci, _ := s.estimate(maint)
		s.res.Steps.Estimation += time.Since(t2)
		s.res.Satisfied = done
		s.res.CI = ci
		if s.ctx.Err() != nil {
			return s.interrupted()
		}
		if s.res.Community == nil {
			return nil, ErrNoCommunity
		}
	}
	if s.ctx.Err() != nil {
		return s.interrupted()
	}
	return s.result(), nil
}

// buildGq expands Gq best-first around q until it holds size nodes or all of
// q's component, and computes its sampling probabilities (Eq. 5). Both live
// in the workspace, and so does the frontier: the first call (GqSize still 0)
// starts the expansion, a second one continues it.
func (s *seaRun) buildGq(size int) ([]graph.NodeID, []float64) {
	s.w.Gq = sampling.BuildGqView(s.w.Gq[:s.res.GqSize], s.g, s.q, &s.f, size, s.w)
	s.w.Probs = sampling.ProbabilitiesView(s.w.Probs[:0], s.w.Gq, &s.f)
	s.res.GqSize = len(s.w.Gq)
	return s.w.Gq, s.w.Probs
}

// enlarge adds up to deltaS fresh weighted samples from gq to sample. The
// rest pool lives in workspace scratch, so the incremental step is
// allocation-free in the steady state.
func (s *seaRun) enlarge(gq []graph.NodeID, probs []float64, sample []graph.NodeID, deltaS int) []graph.NodeID {
	restNodes := s.w.Nodes[:0]
	restProbs := s.w.Floats[:0]
	for i, v := range gq {
		if !s.w.Sampled.Has(v) {
			restNodes = append(restNodes, v)
			restProbs = append(restProbs, probs[i])
		}
	}
	s.w.Nodes, s.w.Floats = restNodes[:0], restProbs[:0]
	if len(restNodes) == 0 {
		return sample
	}
	if deltaS > len(restNodes) {
		deltaS = len(restNodes)
	}
	return sampling.WeightedSampleInto(sample, restNodes, restProbs, deltaS, -1, s.rng, s.w)
}

// extract adds added to the sample's membership (w.Sampled) and returns the
// maintenance structure over the model's maximal connected structure
// containing q in the subgraph the sample induces, valid until the next
// extract, or nil when there is none or ctx was cancelled. Both models read
// only what q reaches in the sample: kcore.MaximalSubIn walks the members
// whose degree in the sample is at least k, truss.MaximalSubIn the edges
// closing k−2 triangles in it. When the sample around q joins a component of
// thousands of nodes, that is still the few dozen around q, and neither the
// component nor a core of it is ever walked.
func (s *seaRun) extract(added []graph.NodeID) cohesive.Maintainer {
	t1 := time.Now()
	defer func() { s.res.Steps.Sampling += time.Since(t1) }()
	for _, v := range added {
		s.w.Sampled.Add(v)
	}
	// A nil *Sub must come back as a nil interface.
	if s.opts.Model == KTruss {
		if maint := truss.MaximalSubIn(s.ctx, s.g, s.q, s.opts.K, &s.w.Sampled, s.w); maint != nil {
			return maint
		}
	} else if maint := kcore.MaximalSubIn(s.ctx, s.g, s.q, s.opts.K, &s.w.Sampled, s.w); maint != nil {
		return maint
	}
	return nil
}

// minCommunitySize is the smallest admissible community (including q): the
// structural floor of the model, raised to the size bound's lower end.
func (s *seaRun) minCommunitySize() int {
	structural := s.opts.Model.MinSize(s.opts.K)
	if s.opts.SizeHi > 0 && s.opts.SizeLo > structural {
		return s.opts.SizeLo
	}
	return structural
}

// estimate runs the greedy candidate search of §V-B on maint: estimate δ of
// the current candidate with stats.MeanCI over its members' f values (q's
// own is 0 and left out), peel the most dissimilar member, repeat.
//
// In the default mode the search walks the full greedy trajectory —
// estimating candidates at log-spaced sizes plus the final one — and keeps
// the candidate with the smallest δ*; done reports whether that candidate's
// CI satisfies Theorem 11. The paper's literal rule stops at the FIRST
// candidate whose CI satisfies it, and the default deviates on purpose.
// Theorem 11 bounds the error of one candidate's estimate δ*; it does not say
// the candidate is a good community. The walk starts at the maximal
// structure, and the early, large candidates hold the most values, so theirs
// are the narrowest intervals of the trajectory: they satisfy the rule first,
// when the peel has barely begun to lower δ. On the twitter analog (scale
// 0.25, k=6, e=10%) the literal rule returned 46 members at δ=0.448 where
// the full walk returned 15 at δ=0.328, both satisfied; it is the full walk
// whose δ tracks the exact optimum as the paper's Figure 5(a) reports. The
// guarantee is about the returned candidate's own interval, so it holds
// under either rule. The price: the smallest candidates have the widest
// intervals, so done is harder to reach and more rounds run. At the default
// e=2% neither rule is usually satisfied on the analogs, and both return the
// same candidate at the floor.
//
// Options.NoRefine selects the literal rule. It is the control side of that
// comparison (BenchmarkAblationStoppingRule, the request's no_refine field),
// not a mode any line-up uses.
//
// On failure the best candidate's interval and its number of values n feed
// Eq. 12; n is 0 when no candidate was estimated.
func (s *seaRun) estimate(maint cohesive.Maintainer) (done bool, best stats.CI, n int) {
	members := s.w.Members[:0]
	values := s.w.Vals[:0]
	bestSet := s.w.Best[:0]
	haveBest := false
	defer func() {
		// Return the (possibly regrown) buffers to the workspace.
		s.w.Members, s.w.Vals, s.w.Best = members[:0], values[:0], bestSet[:0]
	}()
	minSize := s.minCommunitySize()
	nextEstimate := maint.Size() // estimate at log-spaced candidate sizes
	for {
		// Cancellation check once per peel iteration: each iteration already
		// scans the membership, so the ctx.Err() load is noise by comparison,
		// and it bounds the response to a cancelled context by one iteration.
		if s.ctx.Err() != nil {
			break
		}
		members = maint.Members(members[:0])
		if len(members) < minSize {
			break
		}
		withinSize := s.opts.SizeHi == 0 || len(members) <= s.opts.SizeHi
		atFloor := len(members) == minSize
		if withinSize && (len(members) <= nextEstimate || atFloor) {
			nextEstimate = len(members) * 49 / 50
			if nextEstimate >= len(members) {
				nextEstimate = len(members) - 1
			}
			values = values[:0]
			for _, v := range members {
				if v != s.q {
					values = append(values, s.f.At(v))
				}
			}
			ci, err := stats.MeanCI(values, s.opts.Confidence)
			// The paper-literal rule (NoRefine) keeps the latest candidate
			// and stops at the first that satisfies; the default keeps the
			// smallest δ*.
			if err == nil && (s.opts.NoRefine || !haveBest || ci.Center < best.Center) {
				best, haveBest, n = ci, true, len(values)
				bestSet = append(bestSet[:0], members...)
				done = ci.SatisfiesErrorBound(s.opts.ErrorBound)
				if done && s.opts.NoRefine {
					break
				}
			}
		}
		// Peel the most dissimilar member (never q).
		worst := s.mostDissimilar(members)
		if worst < 0 {
			break
		}
		removed, qAlive := maint.RemoveCascade(worst)
		if !qAlive || maint.Size() < minSize {
			maint.Restore(removed)
			break
		}
	}
	if haveBest {
		s.res.Community = slices.Clone(bestSet)
		s.res.Delta = s.f.Delta(s.res.Community, s.q)
	}
	return done, best, n
}

// mostDissimilar returns the first member with the maximal f(·,q), never q
// itself, or -1 when only q remains.
func (s *seaRun) mostDissimilar(members []graph.NodeID) graph.NodeID {
	var worst graph.NodeID = -1
	worstD := -1.0
	for _, v := range members {
		if v == s.q {
			continue
		}
		if d := s.f.At(v); d > worstD {
			worstD = d
			worst = v
		}
	}
	return worst
}
