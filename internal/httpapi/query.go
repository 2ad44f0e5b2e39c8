package httpapi

// The query surface: /search, /batch, /compare, /healthz and /debug/trace
// over a Resolver, plus the single-engine /stats. All query endpoints decode
// the same wire form of query.Request, so one JSON body works across single
// search, batch and method comparison; /compare replays one request through
// several methods side by side.

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/stats"
)

// Resolver maps a dataset name from the wire ("graph" field or ?graph=
// parameter; empty = the default dataset) to the Engine serving it. Errors
// should wrap cserr.ErrUnknownGraph so they map to 404. The resolved engine
// is used for the whole request, so a concurrent hot-swap never splits one
// request across two snapshots.
type Resolver func(name string) (*engine.Engine, error)

// EngineRoutes is the route table of one engine: every request resolves to
// e, and naming any other graph is an error.
func EngineRoutes(e *engine.Engine) []Route {
	q := queryAPI{func(name string) (*engine.Engine, error) {
		if name != "" {
			return nil, fmt.Errorf("%w: %q (single-graph server)", cserr.ErrUnknownGraph, name)
		}
		return e, nil
	}}
	return append(q.routes(), Route{Method: http.MethodGet, Path: "/stats", Handler: q.stats})
}

// toNodeID converts a wire-format node ID, rejecting values that would
// silently truncate to a different (possibly valid) int32 node.
func toNodeID(v int64) (graph.NodeID, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, cserr.Invalidf("query node %d outside the node-ID range", v)
	}
	return graph.NodeID(v), nil
}

// wireRequest is the JSON wire form shared by /search, /batch and /compare:
// the fields of query.Request plus the endpoint-specific Q/Queries/Methods.
// The outer Q shadows the embedded Request's "q" tag so a missing query
// node is distinguishable from node 0.
type wireRequest struct {
	Q       *int64   `json:"q"`
	Queries []int64  `json:"queries"`
	Methods []string `json:"methods"`
	query.Request
}

// queryNode returns the request's "q" as a node ID.
func (w wireRequest) queryNode() (graph.NodeID, error) {
	if w.Q == nil {
		return 0, cserr.Invalidf("missing query node \"q\"")
	}
	return toNodeID(*w.Q)
}

type ciJSON struct {
	Center     float64 `json:"center"`
	MoE        float64 `json:"moe"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
	Confidence float64 `json:"confidence"`
}

type searchResponse struct {
	Query     int64               `json:"query"`
	Method    string              `json:"method,omitempty"`
	Community []graph.NodeID      `json:"community,omitempty"`
	Size      int                 `json:"size"`
	Delta     float64             `json:"delta"`
	CI        ciJSON              `json:"ci"`
	Satisfied bool                `json:"satisfied"`
	States    int64               `json:"states,omitempty"`
	Truncated bool                `json:"truncated,omitempty"`
	Metrics   engine.QueryMetrics `json:"metrics"`
	Err       string              `json:"err,omitempty"`
}

type batchResponse struct {
	Items []searchResponse `json:"items"`
}

type compareResponse struct {
	Query int64 `json:"query"`
	// Best names the method with the smallest δ among the successful runs
	// (empty when none succeeded).
	Best  string           `json:"best,omitempty"`
	Items []searchResponse `json:"items"`
}

func toResponse(req query.Request, out *query.Outcome, qm engine.QueryMetrics, err error) searchResponse {
	resp := searchResponse{Query: int64(req.Query), Method: req.Method.String(), Metrics: qm}
	if err != nil {
		resp.Err = err.Error()
	}
	if out == nil {
		return resp
	}
	resp.Community = out.Community
	resp.Size = len(out.Community)
	resp.Delta = out.Delta
	resp.CI = toCIJSON(out.CI)
	resp.Satisfied = out.Satisfied
	resp.States = out.States
	resp.Truncated = out.Truncated
	return resp
}

func toCIJSON(ci stats.CI) ciJSON {
	return ciJSON{Center: ci.Center, MoE: ci.MoE, Lo: ci.Lo(), Hi: ci.Hi(), Confidence: ci.Confidence}
}

// queryAPI holds the query handlers over one Resolver.
type queryAPI struct{ resolve Resolver }

// routes is the query surface both EngineRoutes and CatalogRoutes start
// from; each adds its own /stats.
func (a queryAPI) routes() []Route {
	return []Route{
		{Method: http.MethodGet, Path: "/search", Handler: a.search},
		{Method: http.MethodPost, Path: "/search", Handler: a.search},
		{Method: http.MethodPost, Path: "/batch", Handler: a.batch},
		{Method: http.MethodGet, Path: "/compare", Handler: a.compare},
		{Method: http.MethodPost, Path: "/compare", Handler: a.compare},
		{Method: http.MethodGet, Path: "/healthz", Handler: a.healthz},
		{Method: http.MethodGet, Path: "/debug/trace", Handler: a.trace},
	}
}

// decode extracts the wireRequest — from the body of a POST, from the URL
// query parameters otherwise — and resolves the engine it names.
func (a queryAPI) decode(w http.ResponseWriter, r *http.Request) (wireRequest, *engine.Engine, error) {
	var wire wireRequest
	var err error
	if r.Method == http.MethodPost {
		err = DecodeJSONBody(w, r, &wire)
	} else {
		err = wireFromQuery(r, &wire)
	}
	if err != nil {
		return wire, nil, err
	}
	e, err := a.resolve(wire.Graph)
	return wire, e, err
}

// search answers one community: POST {"q":12,"method":"sea","k":6,...}, or
// GET ?q=12&k=6&method=exact for curl.
func (a queryAPI) search(w http.ResponseWriter, r *http.Request) error {
	wire, e, err := a.decode(w, r)
	if err != nil {
		return err
	}
	req := wire.Request
	if req.Query, err = wire.queryNode(); err != nil {
		return err
	}
	req = req.WithDefaults()
	if err := req.Validate(); err != nil {
		return err
	}
	out, qm, err := e.QueryWithMetrics(r.Context(), req)
	WriteJSON(w, StatusFor(err), toResponse(req, out, qm, err))
	return nil
}

// batch answers one item per query node: POST {"queries":[1,2,3],"k":6,...}.
func (a queryAPI) batch(w http.ResponseWriter, r *http.Request) error {
	wire, e, err := a.decode(w, r)
	if err != nil {
		return err
	}
	if len(wire.Queries) == 0 {
		return cserr.Invalidf("missing \"queries\"")
	}
	reqs := make([]query.Request, len(wire.Queries))
	for i, q := range wire.Queries {
		id, err := toNodeID(q)
		if err != nil {
			return err
		}
		req := wire.Request
		req.Query = id
		reqs[i] = req.WithDefaults()
	}
	items, err := e.Batch(r.Context(), reqs)
	if err != nil {
		return err
	}
	resp := batchResponse{Items: make([]searchResponse, len(items))}
	shedAll := len(items) > 0
	for i, it := range items {
		resp.Items[i] = toResponse(it.Request, it.Outcome, it.Metrics, it.Err)
		shedAll = shedAll && errors.Is(it.Err, cserr.ErrOverloaded)
	}
	// Per-item shedding is partial degradation (200, item Errs set); a
	// batch with every item shed is an overloaded node and says so.
	status := http.StatusOK
	if shedAll {
		status = http.StatusTooManyRequests
	}
	WriteJSON(w, status, resp)
	return nil
}

// compare answers one item per method plus "best": POST
// {"q":12,"methods":["sea","exact"],...}, or GET ?q=12&methods=sea,exact.
func (a queryAPI) compare(w http.ResponseWriter, r *http.Request) error {
	wire, e, err := a.decode(w, r)
	if err != nil {
		return err
	}
	q, err := wire.queryNode()
	if err != nil {
		return err
	}
	if len(wire.Methods) == 0 {
		return cserr.Invalidf("missing \"methods\"")
	}
	reqs := make([]query.Request, len(wire.Methods))
	for i, name := range wire.Methods {
		if name == "" {
			// ParseMethod resolves "" to SEA for omitted single-method
			// fields; in an explicit list it is a malformed entry
			// (typically a stray comma), not a request for SEA.
			return cserr.Invalidf("empty method name in \"methods\"")
		}
		m, err := query.ParseMethod(name)
		if err != nil {
			return err
		}
		// Canonicalize from the raw wire request per method, never from
		// another method's canonical form: WithDefaults neutralizes the
		// parameters a method ignores (e.g. MaxStates under SEA), so a
		// shared canonical base would silently drop parameters the
		// other methods need.
		req := wire.Request
		req.Query = q
		req.Method = m
		req = req.WithDefaults()
		if err := req.Validate(); err != nil {
			return err
		}
		reqs[i] = req
	}
	// One request, several solvers, side by side, through the engine's
	// bounded worker pool (admission, caches, coalescing, per-stage
	// metrics all apply per method).
	items, err := e.Batch(r.Context(), reqs)
	if err != nil {
		return err
	}
	resp := compareResponse{Query: int64(q), Items: make([]searchResponse, len(items))}
	best := -1
	for i, it := range items {
		resp.Items[i] = toResponse(it.Request, it.Outcome, it.Metrics, it.Err)
		if resp.Items[i].Err != "" && !resp.Items[i].Truncated {
			continue
		}
		if best < 0 || resp.Items[i].Delta < resp.Items[best].Delta {
			best = i
		}
	}
	if best >= 0 {
		resp.Best = resp.Items[best].Method
	}
	WriteJSON(w, http.StatusOK, resp)
	return nil
}

// healthz answers liveness plus the graph's shape, version and methods.
func (a queryAPI) healthz(w http.ResponseWriter, r *http.Request) error {
	e, err := a.resolve(r.URL.Query().Get("graph"))
	if err != nil {
		return err
	}
	g := e.Graph()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"nodes":   g.NumNodes(),
		"edges":   g.NumEdges(),
		"version": e.Version(),
		"methods": query.MethodNames(),
	})
	return nil
}

// stats answers the engine's counters, cache occupancy and per-stage
// latency percentiles.
func (a queryAPI) stats(w http.ResponseWriter, r *http.Request) error {
	e, err := a.resolve(r.URL.Query().Get("graph"))
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusOK, struct {
		engine.Stats
		Latency engine.LatencySummary `json:"latency"`
	}{e.Stats(), e.Latency().Summary()})
	return nil
}

// trace answers the newest ?n= request spans of the engine's trace ring.
func (a queryAPI) trace(w http.ResponseWriter, r *http.Request) error {
	e, err := a.resolve(r.URL.Query().Get("graph"))
	if err != nil {
		return err
	}
	return ServeTrace(w, r, e.Trace)
}

// param parses the URL query parameter name into dst, leaving dst alone when
// the parameter is absent.
func param[T any](vals url.Values, name string, dst *T, parse func(string) (T, error)) error {
	s := vals.Get(name)
	if s == "" {
		return nil
	}
	v, err := parse(s)
	if err != nil {
		return cserr.Invalidf("bad %s=%q", name, s)
	}
	*dst = v
	return nil
}

func parseInt64(s string) (int64, error)     { return strconv.ParseInt(s, 10, 64) }
func parseFloat64(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// wireFromQuery fills wire from URL query parameters (GET endpoints); the
// first malformed parameter, in the order below, is the error.
func wireFromQuery(r *http.Request, wire *wireRequest) error {
	vals := r.URL.Query()
	var q int64
	if vals.Get("q") != "" {
		wire.Q = &q
	}
	if s := vals.Get("methods"); s != "" {
		wire.Methods = strings.Split(s, ",")
	}
	wire.Graph = vals.Get("graph")
	wire.NoRefine = vals.Get("no_refine") == "true"
	for _, err := range []error{
		param(vals, "q", &q, parseInt64),
		wire.Method.UnmarshalText([]byte(vals.Get("method"))),
		wire.Model.UnmarshalText([]byte(vals.Get("model"))),
		param(vals, "k", &wire.K, strconv.Atoi),
		param(vals, "size_lo", &wire.SizeLo, strconv.Atoi),
		param(vals, "size_hi", &wire.SizeHi, strconv.Atoi),
		param(vals, "max_rounds", &wire.MaxRounds, strconv.Atoi),
		param(vals, "seed", &wire.Seed, parseInt64),
		param(vals, "max_states", &wire.MaxStates, parseInt64),
		param(vals, "e", &wire.ErrorBound, parseFloat64),
		param(vals, "confidence", &wire.Confidence, parseFloat64),
		param(vals, "lambda", &wire.Lambda, parseFloat64),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}
