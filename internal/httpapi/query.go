package httpapi

// The query surface: /search, /batch, /compare, /healthz and /debug/trace
// over a Resolver. All query endpoints decode the same wire form of
// query.Request, so one JSON body works across single search, batch and
// method comparison; /compare replays one request through several methods
// side by side.

import (
	"errors"
	"math"
	"net/http"

	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/query"
)

// Resolver maps a dataset name from the wire ("graph" field or ?graph=
// parameter; empty = the default dataset) to the Engine serving it. Errors
// should wrap cserr.ErrUnknownGraph so they map to 404. The resolved engine
// is used for the whole request, so a concurrent hot-swap never splits one
// request across two snapshots.
type Resolver func(name string) (*engine.Engine, error)

// toNodeID converts a wire-format node ID, rejecting values that would
// silently truncate to a different (possibly valid) int32 node.
func toNodeID(v int64) (graph.NodeID, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, cserr.Invalidf("query node %d outside the node-ID range", v)
	}
	return graph.NodeID(v), nil
}

// queryAPI holds the query handlers over one Resolver.
type queryAPI struct{ resolve Resolver }

// routes is the query surface CatalogRoutes starts from.
func (a queryAPI) routes() []Route {
	return []Route{
		{Method: http.MethodGet, Path: "/search", Handler: a.decoded(search)},
		{Method: http.MethodPost, Path: "/search", Handler: a.decoded(search)},
		{Method: http.MethodPost, Path: "/batch", Handler: a.decoded(batch)},
		{Method: http.MethodGet, Path: "/compare", Handler: a.decoded(compare)},
		{Method: http.MethodPost, Path: "/compare", Handler: a.decoded(compare)},
		{Method: http.MethodGet, Path: "/healthz", Handler: a.healthz},
		{Method: http.MethodGet, Path: "/debug/trace", Handler: a.trace},
	}
}

// decoded makes a Route handler of a query handler: it decodes the
// wireRequest into pooled scratch — from the body of a POST, from the URL
// query parameters otherwise — resolves the engine the request names, and
// takes the scratch back when h returns.
func (a queryAPI) decoded(h func(http.ResponseWriter, *http.Request, *scratch, *engine.Engine) error) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		sc := getScratch()
		defer putScratch(sc)
		var err error
		if r.Method == http.MethodPost {
			err = decodeBody(w, r, sc)
		} else {
			err = wireFromQuery(r, &sc.wire)
		}
		if err != nil {
			return err
		}
		e, err := a.resolve(sc.wire.Graph)
		if err != nil {
			return err
		}
		return h(w, r, sc, e)
	}
}

// search answers one community: POST {"q":12,"method":"sea","k":6,...}, or
// GET ?q=12&k=6&method=exact for curl.
func search(w http.ResponseWriter, r *http.Request, sc *scratch, e *engine.Engine) error {
	q, err := sc.wire.queryNode()
	if err != nil {
		return err
	}
	it := engine.BatchItem{Request: sc.wire.Request}
	it.Request.Query = q
	if err := it.Request.Validate(); err != nil {
		return err
	}
	it.Outcome, it.Metrics, it.Err = e.QueryWithMetrics(r.Context(), it.Request)
	var ok bool
	if sc.b, ok = appendSearch(sc.b[:0], &it); !ok {
		WriteJSON(w, StatusFor(it.Err), toResponse(&it))
		return nil
	}
	writeBody(w, StatusFor(it.Err), sc.b)
	return nil
}

// batch answers one item per query node: POST {"queries":[1,2,3],"k":6,...}.
func batch(w http.ResponseWriter, r *http.Request, sc *scratch, e *engine.Engine) error {
	wire := &sc.wire
	if len(wire.Queries) == 0 {
		return cserr.Invalidf("missing \"queries\"")
	}
	items := sc.batchItems(len(wire.Queries))
	for i, q := range wire.Queries {
		id, err := toNodeID(q)
		if err != nil {
			return err
		}
		items[i].Request = wire.Request
		items[i].Request.Query = id
	}
	if err := e.Answer(r.Context(), items); err != nil {
		return err
	}
	// Per-item shedding is partial degradation (200, item Errs set); a
	// batch with every item shed is an overloaded node and says so.
	status := http.StatusTooManyRequests
	for i := range items {
		if !errors.Is(items[i].Err, cserr.ErrOverloaded) {
			status = http.StatusOK
			break
		}
	}
	var ok bool
	if sc.b, ok = appendBatch(sc.b[:0], items); !ok {
		WriteJSON(w, status, batchResponse{Items: toResponses(items)})
		return nil
	}
	writeBody(w, status, sc.b)
	return nil
}

// compare answers one item per method plus "best": POST
// {"q":12,"methods":["sea","exact"],...}, or GET ?q=12&methods=sea,exact.
func compare(w http.ResponseWriter, r *http.Request, sc *scratch, e *engine.Engine) error {
	wire := &sc.wire
	q, err := wire.queryNode()
	if err != nil {
		return err
	}
	if len(wire.Methods) == 0 {
		return cserr.Invalidf("missing \"methods\"")
	}
	items := sc.batchItems(len(wire.Methods))
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
		// Each method's request is the raw wire request with that method,
		// never another method's canonical form: WithDefaults neutralizes
		// the parameters a method ignores (e.g. MaxStates under SEA), so a
		// shared canonical base would silently drop parameters the other
		// methods need. Validating here, in method order, reports the first
		// bad method or bad parameter as it comes.
		req := &items[i].Request
		*req = wire.Request
		req.Query = q
		req.Method = m
		if err := req.Validate(); err != nil {
			return err
		}
	}
	// One request, several solvers, side by side, through the engine's
	// Answer (admission, caches, coalescing, per-stage metrics all apply per
	// method).
	if err := e.Answer(r.Context(), items); err != nil {
		return err
	}
	// Best: the smallest δ among the runs that have an answer — no error, or
	// a truncated best-so-far.
	best := ""
	bestDelta := math.Inf(1)
	for i := range items {
		it := &items[i]
		if it.Outcome == nil || it.Err != nil && !it.Outcome.Truncated {
			continue
		}
		if best == "" || it.Outcome.Delta < bestDelta {
			best, bestDelta = it.Request.Method.String(), it.Outcome.Delta
		}
	}
	var ok bool
	if sc.b, ok = appendCompare(sc.b[:0], int64(q), best, items); !ok {
		WriteJSON(w, http.StatusOK, compareResponse{Query: int64(q), Best: best, Items: toResponses(items)})
		return nil
	}
	writeBody(w, http.StatusOK, sc.b)
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

// trace answers the newest ?n= request spans of the engine's trace ring.
func (a queryAPI) trace(w http.ResponseWriter, r *http.Request) error {
	e, err := a.resolve(r.URL.Query().Get("graph"))
	if err != nil {
		return err
	}
	return ServeTrace(w, r, e.Trace)
}
