// Package query defines the unified, method-agnostic community-search
// request type and the Searcher registry over it. The paper's experimental
// story (§VII) is one query answered by many methods — SEA vs. the exact
// branch-and-bound vs. the ACQ/LocATC/VAC/EVAC baselines — and this package
// is that story as an API: a single graph-independent Request describes the
// query, a Method names the solver, and every solver answers through the
// same Searcher interface with the same Outcome shape, so the library, the
// Engine, the CLI and the HTTP server all speak one spec.
//
// Execution is context-aware end to end: every method's hot loop polls the
// context, so a deadline or client disconnect genuinely stops work instead
// of merely abandoning it. Interrupted and budget-exhausted searches return
// the best community found so far together with a classifying error (see
// internal/cserr for the taxonomy).
package query

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/baselines"
	"repro/internal/cserr"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/sea"
	"repro/internal/stats"
	"repro/internal/ws"
)

// Method names a community-search solver. The zero value is MethodSEA.
type Method int

// Registered methods.
const (
	MethodSEA        Method = iota // SEA sampling-estimation search (§V)
	MethodExact                    // exact branch-and-bound (§IV)
	MethodACQ                      // shared-attribute baseline (Fang et al., PVLDB'16)
	MethodLocATC                   // attribute-coverage local search (Huang & Lakshmanan, PVLDB'17)
	MethodVAC                      // approximate min-max distance baseline (Liu et al., ICDE'20)
	MethodEVAC                     // exact min-max distance baseline with a state budget
	MethodStructural               // plain maximal connected k-core / k-truss, attributes ignored
	numMethods
)

var methodNames = [numMethods]string{
	MethodSEA:        "sea",
	MethodExact:      "exact",
	MethodACQ:        "acq",
	MethodLocATC:     "locatc",
	MethodVAC:        "vac",
	MethodEVAC:       "evac",
	MethodStructural: "structural",
}

// String returns the method's registry name (the wire form).
func (m Method) String() string {
	if m >= 0 && m < numMethods {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Valid reports whether m names a registered method.
func (m Method) Valid() bool { return m >= 0 && m < numMethods }

// MarshalText renders the method's registry name, so a Method round-trips
// through JSON.
func (m Method) MarshalText() ([]byte, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("query: unknown method %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText parses a registry name; the empty string selects MethodSEA.
func (m *Method) UnmarshalText(text []byte) error {
	parsed, err := ParseMethod(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMethod resolves a registry name ("sea", "exact", "acq", "locatc",
// "vac", "evac", "structural") to its Method. The empty string selects
// MethodSEA so zero-valued wire requests keep the paper's primary method.
func ParseMethod(name string) (Method, error) {
	if name == "" {
		return MethodSEA, nil
	}
	for m, n := range methodNames {
		if n == name {
			return Method(m), nil
		}
	}
	// The copy keeps name off the heap for callers parsing out of a buffer.
	return 0, cserr.Invalidf("unknown method %q (want one of %v)", strings.Clone(name), MethodNames())
}

// Methods returns every registered method in registry order.
func Methods() []Method {
	out := make([]Method, numMethods)
	for i := range out {
		out[i] = Method(i)
	}
	return out
}

// MethodNames returns the registry names of every method, in registry order.
func MethodNames() []string {
	return append([]string(nil), methodNames[:]...)
}

// Request is the graph-independent community-search query spec shared by
// every method, the Engine, the CLI and the HTTP server: which node, which
// solver, which structural model, and the accuracy/size/budget parameters.
// All fields are value-typed, so a Request is comparable and serves directly
// as a cache key; zero-valued fields mean "use the default" — the paper's
// (§VII-A), except λ (sea.DefaultOptions) — and are resolved by
// WithDefaults. The JSON form is the HTTP wire format.
type Request struct {
	Query  graph.NodeID `json:"q"`
	Method Method       `json:"method,omitempty"`
	K      int          `json:"k,omitempty"`
	Model  sea.Model    `json:"model,omitempty"`

	// Graph optionally names the dataset the request targets, for servers
	// that mount several (internal/catalog); the empty string means the
	// default dataset. It is routing metadata, not a search parameter: the
	// library entry points ignore it and an Engine — which serves exactly one
	// graph — canonicalizes it away before caching.
	Graph string `json:"graph,omitempty"`

	// Accuracy parameters (SEA): relative error bound e and confidence 1−α.
	ErrorBound float64 `json:"e,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`

	// Size bounds (§VI-B, SEA only): when SizeHi > 0 the community has
	// between SizeLo and SizeHi members.
	SizeLo int `json:"size_lo,omitempty"`
	SizeHi int `json:"size_hi,omitempty"`

	// Seed drives SEA's random sampling. Unlike the other parameters it has
	// no zero-means-default resolution — 0 is itself a valid seed.
	// DefaultRequest sets 1, the paper's default.
	Seed     int64 `json:"seed,omitempty"`
	NoRefine bool  `json:"no_refine,omitempty"`

	// MaxStates bounds the exact and EVAC search trees; the truncated
	// best-so-far is returned with ErrBudgetExhausted. For exact, 0 means
	// unlimited (the historical contract); for EVAC — whose tree explodes on
	// any non-trivial graph — 0 selects DefaultEVACStates.
	MaxStates int64 `json:"max_states,omitempty"`

	// Advanced SEA sampling knobs; zero values select sea.DefaultOptions:
	// the paper's ϵ, β and round cap, and λ = 1, which samples all of Gq
	// (the paper's λ is 0.2).
	Lambda    float64 `json:"lambda,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	Beta      float64 `json:"beta,omitempty"`
	MaxRounds int     `json:"max_rounds,omitempty"`
}

// DefaultRequest returns a Request for query node q with the default
// parameters fully spelled out: method SEA, k=4, k-core model, e=2%, 95%
// confidence, seed 1 — the paper's (§VII-A) — and λ = 1
// (sea.DefaultOptions says why).
func DefaultRequest(q graph.NodeID) Request {
	return Request{Query: q, Seed: 1}.WithDefaults()
}

// defaults is sea.DefaultOptions(), built once: WithDefaults, Validate and
// Options read it for every request.
var defaults = sea.DefaultOptions()

// WithDefaults resolves every zero-valued parameter to its default (Seed
// excepted — 0 is a valid seed) and neutralizes parameters the chosen
// method ignores, returning the canonical Request. Engine caching and
// coalescing key on the canonical form, so a sparse wire request, its
// spelled-out equivalent, and variants differing only in ignored knobs all
// hit the same cache entry.
func (r Request) WithDefaults() Request {
	r.canonicalize()
	return r
}

// canonicalize is WithDefaults in place.
func (r *Request) canonicalize() {
	d := &defaults
	if r.K == 0 {
		r.K = d.K
	}
	if r.ErrorBound == 0 {
		r.ErrorBound = d.ErrorBound
	}
	if r.Confidence == 0 {
		r.Confidence = d.Confidence
	}
	if r.Lambda == 0 {
		r.Lambda = d.Lambda
	}
	if r.Eps == 0 {
		r.Eps = d.Eps
	}
	if r.Beta == 0 {
		r.Beta = d.Beta
	}
	if r.MaxRounds == 0 {
		r.MaxRounds = d.MaxRounds
	}
	// Neutralize method-irrelevant parameters (to the defaults, keeping the
	// Request valid) so they cannot split cache entries or defeat
	// coalescing for requests that are semantically identical.
	if r.Method != MethodSEA && r.Method.Valid() {
		r.ErrorBound, r.Confidence = d.ErrorBound, d.Confidence
		r.Lambda, r.Eps, r.Beta = d.Lambda, d.Eps, d.Beta
		r.MaxRounds = d.MaxRounds
		r.Seed, r.NoRefine = 0, false
	}
	if r.Method != MethodExact && r.Method != MethodEVAC {
		r.MaxStates = 0
	}
}

// Validate reports request errors after default resolution; every error
// wraps cserr.ErrInvalidRequest. Method/parameter mismatches that would
// silently change meaning (size bounds on a method that ignores them, the
// k-truss model under the k-core-only exact solver) are rejected rather
// than ignored.
func (r Request) Validate() error {
	r.canonicalize()
	return r.validate()
}

// validate is Validate for a canonical request.
func (r *Request) validate() error {
	if r.Query < 0 {
		return cserr.Invalidf("query node %d negative", r.Query)
	}
	if !r.Method.Valid() {
		return cserr.Invalidf("unknown method %d", int(r.Method))
	}
	if r.Model != sea.KCore && r.Model != sea.KTruss {
		return cserr.Invalidf("unknown model %d", int(r.Model))
	}
	if r.Method == MethodExact && r.Model == sea.KTruss {
		return cserr.Invalidf("method exact supports only the k-core model")
	}
	if r.SizeHi != 0 || r.SizeLo != 0 {
		if r.Method != MethodSEA {
			return cserr.Invalidf("size bounds are only supported by method sea, not %s", r.Method)
		}
	}
	if r.MaxStates < 0 {
		return cserr.Invalidf("MaxStates %d negative", r.MaxStates)
	}
	// The shared structural/accuracy parameters reuse the SEA validation.
	return r.options().Validate()
}

// Options projects the Request onto sea.Options: every SEA parameter of
// r.WithDefaults() carries over; only Query, Method and the non-SEA budget
// fields stay behind.
func (r Request) Options() sea.Options {
	r.canonicalize()
	return r.options()
}

// options is Options for a canonical request.
func (r *Request) options() sea.Options {
	return sea.Options{
		K:          r.K,
		ErrorBound: r.ErrorBound,
		Confidence: r.Confidence,
		Lambda:     r.Lambda,
		Eps:        r.Eps,
		Beta:       r.Beta,
		Model:      r.Model,
		SizeLo:     r.SizeLo,
		SizeHi:     r.SizeHi,
		BLB:        defaults.BLB,
		MaxRounds:  r.MaxRounds,
		NoRefine:   r.NoRefine,
		Seed:       r.Seed,
	}
}

// Outcome is the method-agnostic result of one Request. Community and Delta
// are populated for every method (Delta is always the paper's q-centric
// attribute distance, so outcomes of different methods are directly
// comparable); the remaining fields carry method-specific detail.
type Outcome struct {
	Method    Method         `json:"method"`
	Community []graph.NodeID `json:"community"`
	// Delta is the q-centric attribute distance δ of the community (§II),
	// recomputed identically for every method.
	Delta float64 `json:"delta"`
	// CI and Satisfied report SEA's confidence interval and whether the
	// Theorem-11 stopping rule was achieved; zero for other methods.
	CI        stats.CI `json:"ci"`
	Satisfied bool     `json:"satisfied"`
	// States counts search-tree states visited by exact; 0 for others.
	States int64 `json:"states,omitempty"`
	// Truncated marks a best-so-far community from a search cut short by a
	// state budget or a cancelled context.
	Truncated bool `json:"truncated,omitempty"`
	// SEA and Exact carry the full method-specific traces when applicable.
	SEA   *sea.Result   `json:"-"`
	Exact *exact.Result `json:"-"`

	// rendered is a serving layer's encoding of the fields above, set at
	// most once (see Rendered). It also makes copying an Outcome a vet error.
	rendered atomic.Pointer[[]byte]
}

// Rendered returns render(o), computed on first use and kept with the
// Outcome: an Outcome is immutable once a solver has returned it and is
// shared by every request the engine answers with it, so what a serving
// layer writes for it is the same bytes each time. render must depend on o
// alone; concurrent first calls may each run it, and one result is kept.
func (o *Outcome) Rendered(render func(*Outcome) []byte) []byte {
	if p := o.rendered.Load(); p != nil {
		return *p
	}
	b := render(o)
	if !o.rendered.CompareAndSwap(nil, &b) {
		return *o.rendered.Load()
	}
	return b
}

// Searcher answers Requests with one fixed method on any graph backing.
// Obtain one from NewSearcher; implementations are stateless and safe for
// concurrent use. Search builds the attribute metric itself (γ=0.5, the
// paper's default); use Run to share a precomputed metric. Either way the
// solver computes f(·,q) itself, as part of answering.
type Searcher interface {
	// Method returns the solver this searcher routes to.
	Method() Method
	// Search answers req on g. The request's Method field is ignored in
	// favor of the searcher's own, so one Request can be replayed across
	// several searchers for comparison.
	Search(ctx context.Context, g graph.Store, req Request) (*Outcome, error)
}

// DefaultGamma is the attribute-metric balance factor used when a searcher
// builds its own metric (the paper's default γ).
const DefaultGamma = 0.5

// NewSearcher returns the Searcher for a registered method.
func NewSearcher(m Method) (Searcher, error) {
	if !m.Valid() {
		return nil, cserr.Invalidf("unknown method %d", int(m))
	}
	return methodSearcher{m}, nil
}

type methodSearcher struct{ m Method }

func (s methodSearcher) Method() Method { return s.m }

func (s methodSearcher) Search(ctx context.Context, g graph.Store, req Request) (*Outcome, error) {
	req.Method = s.m
	return Run(ctx, g, nil, req)
}

// Execute answers req on g with the method req names, building the default
// attribute metric. It is the one-call form of NewSearcher + Search.
func Execute(ctx context.Context, g graph.Store, req Request) (*Outcome, error) {
	return Run(ctx, g, nil, req)
}

// Run answers req on g, reusing the caller's attribute metric m; a nil m
// becomes the DefaultGamma metric right after validation. f(·,q) is computed
// by the solver that reads it, on the calling goroutine: SEA evaluates f at
// the nodes it touches, a baseline at its community's members for δ, and
// only exact, which bounds over every node, fills m.QueryDist(q). This is the
// entry point the Engine drives with its shared metric; g may be any
// graph.Store backing — heap CSR or mapped snapshot — and the Outcome is
// byte-identical across them. On interruption or budget
// exhaustion the Outcome carries the best community found so far (Truncated
// set) alongside the classifying error.
func Run(ctx context.Context, g graph.Store, m *attr.Metric, req Request) (*Outcome, error) {
	req.canonicalize()
	if err := req.validate(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, cserr.Invalidf("nil graph")
	}
	if int(req.Query) >= g.NumNodes() {
		return nil, cserr.Invalidf("query node %d outside graph [0,%d)", req.Query, g.NumNodes())
	}
	if m == nil {
		var err error
		if m, err = attr.NewMetric(g, DefaultGamma); err != nil {
			return nil, err
		}
	}
	e := &env{ctx: ctx, g: g, m: m}
	out, err := executors[req.Method](e, req)
	if out != nil {
		out.Method = req.Method
		if out.Community != nil && out.SEA == nil {
			// SEA's own δ is this one, read from the same f.
			out.Delta = delta(m, out.Community, req.Query)
		}
	}
	return out, err
}

// env bundles the per-execution inputs shared by the method executors: the
// graph and the attribute metric.
type env struct {
	ctx context.Context
	g   graph.Store
	m   *attr.Metric
}

// delta is δ of members, evaluating f at the members alone.
func delta(m *attr.Metric, members []graph.NodeID, q graph.NodeID) float64 {
	w := ws.Get()
	defer w.Release()
	f := m.View(q, &w.Dist)
	return f.Delta(members, q)
}

// executor answers one canonical (defaults-resolved, validated) Request.
type executor func(*env, Request) (*Outcome, error)

// executors is the method registry: one executor per Method, indexed by the
// enum. Adding a method means adding an enum value, a name, and a row here.
var executors = [numMethods]executor{
	MethodSEA:        runSEA,
	MethodExact:      runExact,
	MethodACQ:        runACQ,
	MethodLocATC:     runLocATC,
	MethodVAC:        runVAC,
	MethodEVAC:       runEVAC,
	MethodStructural: runStructural,
}

func runSEA(e *env, req Request) (*Outcome, error) {
	res, err := sea.SearchContext(e.ctx, e.g, e.m, req.Query, req.options())
	if res == nil {
		return nil, err
	}
	return &Outcome{
		Community: res.Community,
		Delta:     res.Delta,
		CI:        res.CI,
		Satisfied: res.Satisfied,
		Truncated: err != nil,
		SEA:       res,
	}, err
}

func runExact(e *env, req Request) (*Outcome, error) {
	cfg := exact.DefaultConfig()
	cfg.MaxStates = req.MaxStates
	res, err := exact.SearchContext(e.ctx, e.g, req.Query, req.K, e.m.QueryDist(req.Query), cfg)
	if err != nil && res.Community == nil {
		return nil, err
	}
	return &Outcome{
		Community: res.Community,
		States:    res.Stats.States,
		Truncated: err != nil,
		Exact:     &res,
	}, err
}

func runACQ(e *env, req Request) (*Outcome, error) {
	return baselineOutcome(baselines.ACQ(e.ctx, e.g, req.Query, req.K, req.Model))
}

func runLocATC(e *env, req Request) (*Outcome, error) {
	return baselineOutcome(baselines.LocATC(e.ctx, e.g, req.Query, req.K, req.Model))
}

func runVAC(e *env, req Request) (*Outcome, error) {
	return baselineOutcome(baselines.VAC(e.ctx, e.g, e.m, req.Query, req.K, req.Model))
}

// DefaultEVACStates is the EVAC state budget applied when Request.MaxStates
// is zero: unlike exact, EVAC's min-max branch-and-bound has no pruning, so
// "unlimited" would never return on a non-trivial graph.
const DefaultEVACStates = 200_000

func runEVAC(e *env, req Request) (*Outcome, error) {
	budget := req.MaxStates
	if budget == 0 {
		budget = DefaultEVACStates
	}
	return baselineOutcome(baselines.EVAC(e.ctx, e.g, e.m, req.Query, req.K, req.Model, int(budget)))
}

func runStructural(e *env, req Request) (*Outcome, error) {
	members := baselines.MaximalMembers(e.g, req.Query, req.K, req.Model)
	if members == nil {
		return nil, cserr.ErrNoCommunity
	}
	return &Outcome{Community: members}, nil
}

// baselineOutcome adapts the ([]NodeID, error) contract of the baselines:
// a best-so-far community may accompany an interruption error.
func baselineOutcome(members []graph.NodeID, err error) (*Outcome, error) {
	if members == nil {
		return nil, err
	}
	return &Outcome{Community: members, Truncated: err != nil}, err
}
