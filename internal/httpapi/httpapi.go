// Package httpapi is the node's wire protocol: the JSON request/response
// types, the error-to-status mapping, the body and response helpers, and the
// one route table every serving handler is built from. internal/engine and
// internal/catalog know nothing about HTTP; internal/cluster contributes its
// control endpoints and the follower write fence as rows of the same table.
//
// A handler is New(routes, fence): CatalogRoutes serves a catalog of
// datasets (one engine is served as a one-dataset catalog), and
// cluster.NewNodeHandler appends /admin/replication|promote|follow to it.
// Dispatch is one map lookup on the request path; a path registered under
// other methods answers 405 with an Allow header and the {"error": ...} body
// every endpoint uses.
//
// The query endpoints do not reflect over their bodies. A request's fields
// are named once, in the wireFields table (wire.go), read by wireFromQuery
// for a GET and by scanWire for a POST — a strict scanner that only ever
// declines, leaving anything but the plain shape clients send to
// DecodeJSONBody's decoder, the one place a decoding error is made.
// appendSearch, appendBatch and appendCompare (encode.go) write what
// encoding/json writes for the response structs, the part only the Outcome
// decides rendered once per Outcome.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/cserr"
	"repro/internal/engine"
)

// Route is one row of a node's route table.
type Route struct {
	// Method is http.MethodGet (which also answers HEAD) or http.MethodPost.
	Method string
	Path   string
	// Handler answers the request, or returns an error for the dispatcher
	// to answer with: status StatusFor(err), body {"error": ...}.
	Handler func(http.ResponseWriter, *http.Request) error
	// Fenced marks a write that would fork replicated state away from the
	// primary's history: refused with 403 while the handler's fence is up.
	Fenced bool
}

// pathEntry is everything registered under one path.
type pathEntry struct {
	routes []Route
	allow  string // the Allow header of a 405
}

type mux struct {
	paths map[string]*pathEntry
	fence func() error
}

// New builds the handler serving routes. fence (nil: never fenced) is
// consulted before every Fenced route; a non-nil error answers 403 with it.
// Every response echoes the request's X-Request-ID header (error responses
// included) and the ID rides the request context, where the engine picks it
// up for span attribution. IDs are never generated here: origination is the
// router's job, and a directly-addressed node stays byte-stable for clients
// that sent none.
func New(routes []Route, fence func() error) http.Handler {
	m := &mux{paths: make(map[string]*pathEntry), fence: fence}
	for _, rt := range routes {
		e := m.paths[rt.Path]
		if e == nil {
			e = &pathEntry{}
			m.paths[rt.Path] = e
		}
		e.routes = append(e.routes, rt)
	}
	for _, e := range m.paths {
		var methods []string
		for _, rt := range e.routes {
			methods = append(methods, rt.Method)
			if rt.Method == http.MethodGet {
				methods = append(methods, http.MethodHead)
			}
		}
		e.allow = strings.Join(methods, ", ")
	}
	return m
}

func (m *mux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if ids := r.Header[requestIDKey]; len(ids) > 0 && ids[0] != "" {
		id := ids[0]
		w.Header().Set(RequestIDHeader, id)
		r = r.WithContext(engine.ContextWithRequestID(r.Context(), id))
	}
	e := m.paths[r.URL.Path]
	if e == nil {
		http.NotFound(w, r)
		return
	}
	method := r.Method
	if method == http.MethodHead {
		method = http.MethodGet
	}
	for i := range e.routes {
		rt := &e.routes[i]
		if rt.Method != method {
			continue
		}
		if rt.Fenced && m.fence != nil {
			if err := m.fence(); err != nil {
				WriteError(w, http.StatusForbidden, err)
				return
			}
		}
		if err := rt.Handler(w, r); err != nil {
			WriteError(w, StatusFor(err), err)
		}
		return
	}
	w.Header().Set("Allow", e.allow)
	WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
}

// RequestIDHeader is the correlation header propagated end-to-end through
// the distributed serving stack: the router generates an ID when the client
// sent none, stamps it on every request it proxies, and each seaserve echoes
// it back — so one failing read attempt is traceable across processes by a
// single ID.
const RequestIDHeader = "X-Request-ID"

// requestIDKey is RequestIDHeader as http.Header keys it; Header.Get would
// allocate that spelling on every request.
var requestIDKey = http.CanonicalHeaderKey(RequestIDHeader)

// Replication wire protocol: endpoint paths and the headers carrying the
// snapshot cursor. internal/cluster's client speaks exactly these.
const (
	ReplicatePath = "/admin/replicate"
	JournalPath   = "/admin/journal"

	// HeaderGraph names the dataset a replication response describes (the
	// resolved name, even when the request named the default by omission).
	HeaderGraph = "X-Sea-Graph"
	// HeaderVersion is the graph generation the response captured — the
	// replication cursor a follower resumes tailing from.
	HeaderVersion = "X-Sea-Version"
	// HeaderLineage is the dataset's lineage token (swap count); journal
	// tails are only valid within one lineage.
	HeaderLineage = "X-Sea-Lineage"
)

// StatusFor maps the unified error taxonomy to HTTP statuses: invalid
// requests → 400, oversized request bodies → 413, provable absence and
// unknown datasets → 404, interruptions → 408, a replication cursor only a
// fresh snapshot can serve → 410, shed requests → 429, unreadable snapshots
// → 422, exhausted budgets still carry a best-so-far community → 200 with
// Err set; anything else is a 500.
func StatusFor(err error) int {
	if err == nil {
		return http.StatusOK
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, cserr.ErrBudgetExhausted):
		return http.StatusOK
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, cserr.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, cserr.ErrNoCommunity), errors.Is(err, cserr.ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, catalog.ErrResync):
		return http.StatusGone
	case errors.Is(err, cserr.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, cserr.ErrSnapshotCorrupt), errors.Is(err, cserr.ErrSnapshotVersion):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// RetryAfterHint is the Retry-After value (seconds) stamped on every
// transient-rejection response (429, 503) across the serving stack. The
// condition a shed or breaker-rejected request hit is measured in
// in-flight-request lifetimes, so "one second" is the honest granularity.
const RetryAfterHint = "1"

// WriteJSON writes v as a JSON response body with the given status.
// Transient-rejection statuses (429, 503) carry a Retry-After hint so
// well-behaved clients back off instead of hammering.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeJSONHeader(w, status)
	json.NewEncoder(w).Encode(v)
}

// The header values writeJSONHeader assigns: one slice each, shared by every
// response, because Header.Set would canonicalize the key and allocate a
// value slice per response. Nothing writes into a header value in place.
var (
	jsonContentType = []string{"application/json"}
	retryAfterHint  = []string{RetryAfterHint}
)

func writeJSONHeader(w http.ResponseWriter, status int) {
	h := w.Header()
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		h["Retry-After"] = retryAfterHint
	}
	h["Content-Type"] = jsonContentType
	w.WriteHeader(status)
}

type errorResponse struct {
	Error string `json:"error"`
}

// WriteError writes err in the {"error": "..."} body every endpoint uses,
// with the given status.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}

// MaxBodyBytes caps every JSON request body the serving stack reads; larger
// bodies answer 413 instead of buffering unboundedly.
const MaxBodyBytes = 1 << 20

// DecodeJSONBody decodes r's JSON body into v under the MaxBodyBytes cap,
// rejecting trailing garbage after the JSON value. Errors map through
// StatusFor: an overlong body to 413, anything else malformed to 400.
func DecodeJSONBody(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
}

// decodeJSON is DecodeJSONBody over a body already capped: the one place a
// request-decoding error is made.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return tooBig
		}
		if errors.Is(err, cserr.ErrInvalidRequest) {
			return err
		}
		return cserr.Invalidf("bad request body: %v", err)
	}
	// A conforming body is exactly one JSON value; trailing non-whitespace
	// is a malformed request, not ignorable padding.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return cserr.Invalidf("trailing data after JSON request body")
	}
	return nil
}

// ServeTrace answers a /debug/trace request — the node's and the router's —
// from a span ring: the newest ?n= spans (absent or ≤ 0: everything the ring
// holds) as {"spans": [...]}, [] when there are none.
func ServeTrace[T any](w http.ResponseWriter, r *http.Request, last func(n int) []T) error {
	n := 0
	if s := r.URL.Query().Get("n"); s != "" {
		var err error
		if n, err = strconv.Atoi(s); err != nil {
			return cserr.Invalidf("bad n=%q", s)
		}
	}
	spans := last(n)
	if spans == nil {
		spans = []T{}
	}
	WriteJSON(w, http.StatusOK, map[string]any{"spans": spans})
	return nil
}
