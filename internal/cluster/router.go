package cluster

// Router is the scatter-gather front tier (cmd/searouter): a stateless HTTP
// proxy that spreads read load over a replicated seaserve cluster and
// survives the primary's death.
//
//   - Placement: each dataset maps onto a ReplicationFactor-sized replica
//     set by consistent hashing on the dataset name. Followers outside the
//     set still replicate everything (replication is whole-catalog); the
//     ring only decides who serves reads, so it stays stable when members
//     come and go.
//   - Scatter-gather: /batch splits its queries and /compare its methods
//     across the in-sync replica set, each shard under its own deadline. A
//     failed shard degrades its own items to per-item errors instead of
//     failing the request; every item is annotated with the member that
//     served it.
//   - Health: a prober polls every member's /admin/replication. A member
//     that misses FailAfter consecutive probes is dead; followers lagging
//     more than MaxLag batches leave the read set until they catch up.
//   - Failover: when the primary dies the router promotes the alive
//     follower with the highest summed cursor and re-points the rest at it.
//     Writes (/admin/*) always forward to the current primary.
//   - Fault tolerance: reads (/search and scatter shards — idempotent by
//     construction) get a bounded retry budget with jittered exponential
//     backoff, each retry preferring a different in-sync replica. Every
//     member has a circuit breaker (consecutive failures open it; after a
//     cooldown one half-open probe decides whether it closes again) so a
//     struggling member stops absorbing traffic before the prober notices.
//     Writes and admin forwards are never retried — the router cannot know
//     whether a failed write landed.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

// ServedByHeader names the cluster member that actually served a proxied
// request.
const ServedByHeader = "X-Sea-Served-By"

// FanoutHeader carries the number of shards a scatter-gather request fanned
// out to.
const FanoutHeader = "X-Sea-Fanout"

// RouterConfig configures a Router. Members is required; everything else
// has serviceable defaults.
type RouterConfig struct {
	// Members are the base URLs of every cluster node, primary included.
	Members []string
	// Primary is the member writes forward to; defaults to Members[0]. The
	// router moves it on failover.
	Primary string
	// ReplicationFactor is the read-set size per dataset (default 2,
	// clamped to len(Members)).
	ReplicationFactor int
	// ShardTimeout bounds each scatter shard and health probe (default 2s).
	ShardTimeout time.Duration
	// ProbeEvery is the health-probe interval (default 1s).
	ProbeEvery time.Duration
	// FailAfter is how many consecutive probe failures mark a member dead
	// (default 3).
	FailAfter int
	// MaxLag is the most batches a follower may trail the primary and still
	// serve reads (default 8).
	MaxLag uint64
	// Retries is the per-read retry budget: how many additional attempts a
	// failed /search or scatter shard gets, each against a different in-sync
	// replica when one is available, with jittered exponential backoff
	// between attempts. 0 selects the default (2); negative disables
	// retries. Writes and admin forwards are never retried — the router
	// cannot know whether a failed write landed.
	Retries int
	// RetryBase is the first retry's backoff (default 50ms); attempt n waits
	// roughly RetryBase·2ⁿ, jittered ±50%.
	RetryBase time.Duration
	// BreakerThreshold is the consecutive outbound-call failures that open a
	// member's circuit breaker (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// letting one half-open probe through (default 5s).
	BreakerCooldown time.Duration
	// HTTP optionally overrides the outbound client (nil builds one; shard
	// deadlines come from per-request contexts, not a client timeout).
	HTTP *http.Client
}

func (cfg RouterConfig) withDefaults() RouterConfig {
	if cfg.Primary == "" && len(cfg.Members) > 0 {
		cfg.Primary = cfg.Members[0]
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 2
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = 8
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 2
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{}
	}
	return cfg
}

// memberState is the router's health view of one member.
type memberState struct {
	url    string
	alive  bool
	fails  int
	status *NodeStatus // last successful probe, nil until one lands
}

// Router is an http.Handler implementing the front tier. Create with
// NewRouter, release with Close.
type Router struct {
	cfg  RouterConfig
	ring *ring
	hc   *http.Client
	// readHC is hc with the "router.shard" fault-injection site on its
	// transport: read traffic can be failed/delayed/severed by an armed
	// faults spec without also poisoning health probes and failover calls.
	readHC *http.Client
	// breakers holds one circuit breaker per member URL. The map is built in
	// NewRouter and read-only afterwards; the breakers themselves lock.
	breakers map[string]*breaker

	mu      sync.Mutex
	primary string
	members map[string]*memberState

	rr         atomic.Uint64 // round-robin cursor for single-target reads
	promotions atomic.Uint64
	shardErrs  atomic.Uint64
	retries    atomic.Uint64 // read attempts beyond the first

	// shardLat records the latency of each upstream call by path ("/batch",
	// "/compare" per shard; "/search" and "forward" per proxied request).
	// fanWidth records the per-request scatter width (shards per fan-out).
	shardLat map[string]*obs.Histogram
	fanWidth map[string]*obs.Histogram
	// trace keeps the most recent router spans for GET /debug/trace.
	trace *obs.Ring[RouterSpan]

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// routerPaths are the shardLat/fanWidth histogram keys. "forward" covers
// every primary-forwarded request (writes, admin, stats), whatever its path.
var routerPaths = []string{"/search", "/batch", "/compare", "forward"}

// RouterSpan is one request's trace record at the router: correlation id,
// route, scatter width, failed shards and the member(s) that served it.
type RouterSpan struct {
	RequestID string `json:"request_id"`
	Path      string `json:"path"`
	Graph     string `json:"graph,omitempty"`
	StartNS   int64  `json:"start_unix_ns"`
	TotalNS   int64  `json:"total_ns"`
	Fanout    int    `json:"fanout,omitempty"`
	Failures  int    `json:"failures,omitempty"`
	ServedBy  string `json:"served_by,omitempty"`
}

// Trace returns up to n router spans, newest first (n ≤ 0 returns everything
// the ring holds).
func (r *Router) Trace(n int) []RouterSpan { return r.trace.Last(n) }

// NewRouter builds a router over cfg.Members, runs one synchronous probe
// round so the first request already sees member health, and starts the
// background prober.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one member")
	}
	members := make([]string, len(cfg.Members))
	for i, m := range cfg.Members {
		members[i] = strings.TrimRight(m, "/")
	}
	cfg.Members = members
	cfg.Primary = strings.TrimRight(cfg.Primary, "/")
	readHC := *cfg.HTTP
	readHC.Transport = faults.Transport("router.shard", cfg.HTTP.Transport)
	r := &Router{
		cfg:      cfg,
		ring:     newRing(members),
		hc:       cfg.HTTP,
		readHC:   &readHC,
		breakers: make(map[string]*breaker, len(members)),
		primary:  cfg.Primary,
		members:  make(map[string]*memberState, len(members)),
		shardLat: make(map[string]*obs.Histogram, len(routerPaths)),
		fanWidth: make(map[string]*obs.Histogram, 2),
		trace:    obs.NewRing[RouterSpan](256),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, m := range members {
		r.breakers[m] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	for _, p := range routerPaths {
		r.shardLat[p] = &obs.Histogram{}
	}
	r.fanWidth["/batch"] = &obs.Histogram{}
	r.fanWidth["/compare"] = &obs.Histogram{}
	for _, m := range members {
		// Members start alive: death is an observation (FailAfter missed
		// probes), not a default — a router booted moments before its
		// cluster must not instantly promote over a primary that is still
		// starting up.
		r.members[m] = &memberState{url: m, alive: true}
	}
	r.probeOnce(context.Background(), false)
	go r.probeLoop()
	return r, nil
}

// Close stops the prober. In-flight requests finish on their own contexts.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Router) probeLoop() {
	defer close(r.done)
	ticker := time.NewTicker(r.cfg.ProbeEvery)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.probeOnce(context.Background(), true)
		}
	}
}

// probeOnce polls every member's replication status and, when allowed to
// failover, promotes a follower over a dead primary.
func (r *Router) probeOnce(ctx context.Context, failover bool) {
	var wg sync.WaitGroup
	for _, url := range r.cfg.Members {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
			defer cancel()
			st, err := NewClient(url, r.hc).Status(cctx)
			r.mu.Lock()
			defer r.mu.Unlock()
			m := r.members[url]
			if err != nil {
				m.fails++
				if m.fails >= r.cfg.FailAfter {
					m.alive = false
				}
				return
			}
			m.fails = 0
			m.alive = true
			m.status = st
		}(url)
	}
	wg.Wait()
	if failover {
		r.maybeFailover(ctx)
	}
}

// maybeFailover promotes the most-caught-up alive follower when the
// primary is dead, then re-points the surviving followers at it.
func (r *Router) maybeFailover(ctx context.Context) {
	r.mu.Lock()
	if p := r.members[r.primary]; p != nil && p.alive {
		r.mu.Unlock()
		return
	}
	// Pick the alive member with the highest summed replication cursor —
	// the one that loses the fewest acknowledged batches.
	var candidate string
	var best uint64
	var survivors []string
	for _, m := range r.members {
		if !m.alive || m.url == r.primary {
			continue
		}
		survivors = append(survivors, m.url)
		var total uint64
		if m.status != nil {
			for _, ds := range m.status.Datasets {
				total += ds.Version
			}
		}
		if candidate == "" || total > best {
			candidate, best = m.url, total
		}
	}
	r.mu.Unlock()
	if candidate == "" {
		return // nobody left to promote; keep probing
	}
	cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	err := NewClient(candidate, r.hc).Promote(cctx)
	cancel()
	if err != nil {
		return // next probe round retries
	}
	r.promotions.Add(1)
	r.mu.Lock()
	r.primary = candidate
	r.mu.Unlock()
	for _, url := range survivors {
		if url == candidate {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		// Best effort: a follower that misses the re-point keeps erroring
		// against the dead primary until the next failover pass notices.
		NewClient(url, r.hc).Follow(cctx, candidate)
		cancel()
	}
}

// Primary is the member writes currently forward to.
func (r *Router) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// readSet is the ordered list of members that may serve reads for graph
// right now: the ring placement filtered down to alive, in-sync members,
// falling back to any alive member (and last to the primary URL itself, so
// the caller always has a target and surfaces a connection error rather
// than an empty split).
func (r *Router) readSet(graph string) []string {
	placement := r.ring.lookup(graph, r.cfg.ReplicationFactor)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, url := range placement {
		if r.inSyncLocked(url, graph) {
			out = append(out, url)
		}
	}
	if len(out) > 0 {
		return out
	}
	for _, url := range r.cfg.Members {
		if r.inSyncLocked(url, graph) {
			out = append(out, url)
		}
	}
	if len(out) > 0 {
		return out
	}
	return []string{r.primary}
}

// inSyncLocked reports whether url may serve reads for graph; r.mu held.
func (r *Router) inSyncLocked(url, graph string) bool {
	m := r.members[url]
	if m == nil || !m.alive {
		return false
	}
	if url == r.primary {
		return true // the primary is definitionally in sync with itself
	}
	if m.status == nil {
		return false // never successfully probed; sync state unknown
	}
	if m.status.Role == RolePrimary {
		return true
	}
	for _, ds := range m.status.Datasets {
		if graph != "" && ds.Graph != graph {
			continue
		}
		if ds.LastError != "" || ds.Lag > r.cfg.MaxLag {
			return false
		}
		if graph != "" {
			return true
		}
	}
	// graph == "": the empty name resolves to the node's default dataset;
	// reaching here means no dataset disqualified the member. A named graph
	// the member has not bootstrapped yet falls through to false.
	return graph == "" && m.status != nil && len(m.status.Datasets) > 0
}

// ServeHTTP routes: scatter-gather for /batch and POST /compare, single
// in-sync replica for /search and GET /compare, the primary for everything
// else (writes, admin, stats). Every response carries an X-Request-ID,
// generated here when the client did not send one.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	id := req.Header.Get(httpapi.RequestIDHeader)
	if id == "" {
		id = newRequestID()
		req.Header.Set(httpapi.RequestIDHeader, id)
	}
	w.Header().Set(httpapi.RequestIDHeader, id)
	switch req.URL.Path {
	case "/healthz":
		r.serveHealth(w)
	case "/metrics":
		r.serveMetrics(w)
	case "/debug/trace":
		if err := httpapi.ServeTrace(w, req, r.Trace); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
		}
	case "/batch":
		r.serveScatter(w, req, id, scatterBatch)
	case "/compare":
		if req.Method == http.MethodGet || req.Method == http.MethodHead {
			r.serveRead(w, req, id)
		} else {
			r.serveScatter(w, req, id, scatterCompare)
		}
	case "/search":
		r.serveRead(w, req, id)
	default:
		start := time.Now()
		target := r.Primary()
		r.forward(w, req, target, id)
		ns := time.Since(start).Nanoseconds()
		r.shardLat["forward"].Observe(ns)
		r.trace.Add(RouterSpan{RequestID: id, Path: req.URL.Path,
			StartNS: start.UnixNano(), TotalNS: ns, ServedBy: target})
	}
}

func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "searouter-unrandom"
	}
	return hex.EncodeToString(b[:])
}

// routerError is an error originated by the router itself (as opposed to
// one proxied through from a member); it always names the request, and
// transient statuses carry a Retry-After hint so clients back off instead
// of hammering. (httpapi.WriteJSON adds the hint for 429/503 on its own;
// 502 is the router's to stamp.)
func routerError(w http.ResponseWriter, id string, status int, format string, args ...any) {
	if status == http.StatusBadGateway {
		w.Header().Set("Retry-After", httpapi.RetryAfterHint)
	}
	httpapi.WriteJSON(w, status, map[string]string{
		"error":      fmt.Sprintf(format, args...),
		"request_id": id,
	})
}

// errBreakersOpen is the terminal error when every read-set member's
// circuit breaker refuses the call.
var errBreakersOpen = errors.New("every member's circuit breaker is open")

// retryFailureStatus maps the terminal error of an exhausted read-retry
// budget onto the status the router reports: an upstream that answered 429
// on every attempt stays a 429 (the cluster is shedding, not broken), open
// breakers are a 503 (back off and let the cooldown run), everything else
// is a plain bad gateway.
func retryFailureStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, errBreakersOpen) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}

// cancelBody ties a retry attempt's deadline cancel to the response body's
// Close, so the per-attempt timeout stays armed while the caller streams
// the body out.
type cancelBody struct {
	rc     io.ReadCloser
	cancel context.CancelFunc
}

func (c *cancelBody) Read(p []byte) (int, error) { return c.rc.Read(p) }
func (c *cancelBody) Close() error {
	err := c.rc.Close()
	c.cancel()
	return err
}

// pickMember returns the next read target: the first candidate whose
// breaker admits a call, preferring members not tried yet this request so
// retries land on a different replica. Once every candidate has been tried
// a member may be reused — a single-node read set still gets its full
// retry budget. "" means every breaker refused.
func (r *Router) pickMember(candidates []string, tried map[string]bool) string {
	for _, url := range candidates {
		if !tried[url] && r.breakerAllows(url) {
			return url
		}
	}
	for _, url := range candidates {
		if tried[url] && r.breakerAllows(url) {
			return url
		}
	}
	return ""
}

func (r *Router) breakerAllows(url string) bool {
	b := r.breakers[url]
	return b == nil || b.Allow()
}

// tryRead issues one idempotent read with the router's retry budget:
// attempt 0 goes to the first admissible candidate, each retry to the next
// (preferring untried members), with jittered exponential backoff between
// attempts. Transport errors and 5xx responses count against the member's
// breaker and are retried; 429 is retried without a breaker penalty — a
// shedding member is alive and protecting itself, tripping its breaker
// would amplify the overload onto its peers; any other status returns as
// the result. The returned response's Body must be closed by the caller
// (closing it releases the attempt's deadline).
func (r *Router) tryRead(ctx context.Context, candidates []string,
	build func(ctx context.Context, url string) (*http.Request, error)) (*http.Response, string, error) {
	tried := make(map[string]bool, len(candidates))
	var lastErr error
	lastURL := ""
	for attempt := 0; attempt <= r.cfg.Retries; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			select {
			case <-time.After(jitter(r.cfg.RetryBase << uint(attempt-1))):
			case <-ctx.Done():
				if lastErr == nil {
					lastErr = ctx.Err()
				}
				return nil, lastURL, lastErr
			}
		}
		url := r.pickMember(candidates, tried)
		if url == "" {
			if lastErr != nil {
				return nil, lastURL, fmt.Errorf("%w (last error: %v)", errBreakersOpen, lastErr)
			}
			return nil, lastURL, errBreakersOpen
		}
		tried[url] = true
		lastURL = url
		resp, err := r.attempt(ctx, url, build)
		if err != nil {
			lastErr = fmt.Errorf("member %s: %w", url, err)
			continue
		}
		return resp, url, nil
	}
	return nil, lastURL, lastErr
}

// attempt runs one upstream call under its own ShardTimeout deadline and
// settles the member's breaker. pickMember already consumed the breaker's
// Allow, so every path out of here must record exactly one Success or
// Failure — a half-open probe left unresolved would wedge the breaker.
func (r *Router) attempt(ctx context.Context, url string,
	build func(ctx context.Context, url string) (*http.Request, error)) (*http.Response, error) {
	b := r.breakers[url]
	cctx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
	req, err := build(cctx, url)
	if err != nil {
		cancel()
		if b != nil {
			// Never reached the member, but the probe grant must resolve;
			// failing is the conservative choice.
			b.Failure()
		}
		return nil, err
	}
	resp, err := r.readHC.Do(req)
	if err != nil {
		cancel()
		if b != nil {
			b.Failure()
		}
		return nil, err
	}
	switch {
	case resp.StatusCode >= 500:
		if b != nil {
			b.Failure()
		}
		err = errorFrom(resp)
		resp.Body.Close()
		cancel()
		return nil, err
	case resp.StatusCode == http.StatusTooManyRequests:
		if b != nil {
			b.Success()
		}
		err = errorFrom(resp)
		resp.Body.Close()
		cancel()
		return nil, err
	default:
		if b != nil {
			b.Success()
		}
		resp.Body = &cancelBody{rc: resp.Body, cancel: cancel}
		return resp, nil
	}
}

// forward proxies req verbatim to target, tagging the response with the
// member that served it.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, target, id string) {
	out, err := http.NewRequestWithContext(req.Context(), req.Method,
		target+req.URL.Path+queryString(req), req.Body)
	if err != nil {
		routerError(w, id, http.StatusInternalServerError, "building upstream request: %v", err)
		return
	}
	out.Header = req.Header.Clone()
	resp, err := r.hc.Do(out)
	if err != nil {
		routerError(w, id, http.StatusBadGateway, "member %s: %v", target, err)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(httpapi.RequestIDHeader, id)
	w.Header().Set(ServedByHeader, target)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func queryString(req *http.Request) string {
	if req.URL.RawQuery == "" {
		return ""
	}
	return "?" + req.URL.RawQuery
}

// readBody reads req's body under the MaxBodyBytes cap. On failure it has
// answered: 413 for an overlong body, as a node does, 400 otherwise.
func readBody(w http.ResponseWriter, req *http.Request, id string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, httpapi.MaxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		routerError(w, id, status, "reading body: %v", err)
		return nil, false
	}
	return body, true
}

// serveRead proxies a single read (/search, or a GET /compare) to one
// in-sync replica, round-robin across the dataset's read set. The body is
// buffered so a failed attempt can be retried verbatim against a different
// replica — the request is a pure read, replaying it is always safe.
func (r *Router) serveRead(w http.ResponseWriter, req *http.Request, id string) {
	graph := req.URL.Query().Get("graph")
	var body []byte
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		var ok bool
		if body, ok = readBody(w, req, id); !ok {
			return
		}
		var peek struct {
			Graph string `json:"graph"`
		}
		json.Unmarshal(body, &peek)
		graph = peek.Graph
	}
	set := r.readSet(graph)
	// Rotate the read set by the round-robin cursor: attempt 0 spreads load,
	// retries walk the rest of the set.
	off := int(r.rr.Add(1)-1) % len(set)
	candidates := make([]string, 0, len(set))
	for i := range set {
		candidates = append(candidates, set[(off+i)%len(set)])
	}
	header := req.Header.Clone()
	start := time.Now()
	resp, target, err := r.tryRead(req.Context(), candidates, func(ctx context.Context, url string) (*http.Request, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		out, err := http.NewRequestWithContext(ctx, req.Method, url+req.URL.Path+queryString(req), rd)
		if err != nil {
			return nil, err
		}
		out.Header = header.Clone()
		return out, nil
	})
	if err != nil {
		routerError(w, id, retryFailureStatus(err), "read failed: %v", err)
	} else {
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set(httpapi.RequestIDHeader, id)
		w.Header().Set(ServedByHeader, target)
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}
	ns := time.Since(start).Nanoseconds()
	r.shardLat[req.URL.Path].Observe(ns)
	r.trace.Add(RouterSpan{RequestID: id, Path: req.URL.Path, Graph: graph,
		StartNS: start.UnixNano(), TotalNS: ns, ServedBy: target})
}

// scatterPlan describes how one endpoint splits and reassembles: which
// field fans out and how shard responses merge back together.
type scatterPlan struct {
	field string // the wire field that splits across shards
	path  string
	allow string // the Allow header of a 405
	// merge builds the client response from the per-item results (in
	// original order) and the shard responses keyed by member.
	merge func(req map[string]any, items []map[string]any, degraded bool) map[string]any
}

var scatterBatch = scatterPlan{
	field: "queries",
	path:  "/batch",
	allow: http.MethodPost,
	merge: func(req map[string]any, items []map[string]any, degraded bool) map[string]any {
		out := map[string]any{"items": items}
		if degraded {
			out["degraded"] = true
		}
		return out
	},
}

var scatterCompare = scatterPlan{
	field: "methods",
	path:  "/compare",
	allow: "GET, HEAD, POST",
	merge: func(req map[string]any, items []map[string]any, degraded bool) map[string]any {
		out := map[string]any{"items": items}
		if q, ok := req["q"]; ok {
			out["query"] = q
		}
		// Recompute Best across the merged set exactly as the engine does
		// per shard: among items that succeeded (or exhausted their budget
		// with a best-so-far community), smallest δ wins.
		best := -1
		for i, it := range items {
			errStr, _ := it["err"].(string)
			trunc, _ := it["truncated"].(bool)
			if errStr != "" && !trunc {
				continue
			}
			delta, ok := it["delta"].(float64)
			if !ok {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			prev, _ := items[best]["delta"].(float64)
			if delta < prev {
				best = i
			}
		}
		if best >= 0 {
			if m, ok := items[best]["method"].(string); ok {
				out["best"] = m
			}
		}
		if degraded {
			out["degraded"] = true
		}
		return out
	},
}

// serveScatter splits the request's fan-out field across the dataset's read
// set, runs the shards concurrently under per-shard deadlines, and
// reassembles the items in their original order. A failed shard degrades to
// per-item errors; only a total wipeout fails the request.
func (r *Router) serveScatter(w http.ResponseWriter, req *http.Request, id string, plan scatterPlan) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", plan.allow)
		routerError(w, id, http.StatusMethodNotAllowed, "method %s not allowed on %s", req.Method, plan.path)
		return
	}
	body, ok := readBody(w, req, id)
	if !ok {
		return
	}
	var wire map[string]any
	if err := json.Unmarshal(body, &wire); err != nil {
		routerError(w, id, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	fan, _ := wire[plan.field].([]any)
	if len(fan) == 0 {
		routerError(w, id, http.StatusBadRequest, "missing %q", plan.field)
		return
	}
	graph, _ := wire["graph"].(string)
	set := r.readSet(graph)

	// Shard i takes the fan-out entries at positions i, i+len(set),
	// i+2len(set)… — round-robin keeps the shards within one item of even.
	assign := make(map[string][]int, len(set))
	for i := range fan {
		url := set[i%len(set)]
		assign[url] = append(assign[url], i)
	}
	start := time.Now()
	r.fanWidth[plan.path].Observe(int64(len(assign)))
	w.Header().Set(FanoutHeader, strconv.Itoa(len(assign)))

	items := make([]map[string]any, len(fan))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures int
	)
	for url, idxs := range assign {
		wg.Add(1)
		go func(url string, idxs []int) {
			defer wg.Done()
			got, served, err := r.runShard(req.Context(), url, set, id, plan, wire, fan, idxs)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				r.shardErrs.Add(1)
				failures++
				for _, i := range idxs {
					items[i] = shardErrorItem(plan, fan[i], url, id, err)
				}
				return
			}
			for k, i := range idxs {
				got[k][ServedByKey] = served
				items[i] = got[k]
			}
		}(url, idxs)
	}
	wg.Wait()
	r.trace.Add(RouterSpan{RequestID: id, Path: plan.path, Graph: graph,
		StartNS: start.UnixNano(), TotalNS: time.Since(start).Nanoseconds(),
		Fanout: len(assign), Failures: failures})
	if failures == len(assign) {
		routerError(w, id, http.StatusBadGateway, "all %d shards failed; first target %s", len(assign), set[0])
		return
	}
	httpapi.WriteJSON(w, http.StatusOK, plan.merge(wire, items, failures > 0))
}

// ServedByKey annotates each scatter-gather item with the member that
// served it.
const ServedByKey = "served_by"

// runShard sends one shard's slice of the fan-out field to url — retrying
// against the rest of the read set on transport errors, 5xx and 429 (shard
// sub-requests are reads, replaying one is safe) — and returns its items,
// which must match the slice one-to-one, plus the member that actually
// served them.
func (r *Router) runShard(ctx context.Context, url string, set []string, id string, plan scatterPlan,
	wire map[string]any, fan []any, idxs []int) ([]map[string]any, string, error) {
	sub := make(map[string]any, len(wire))
	for k, v := range wire {
		sub[k] = v
	}
	slice := make([]any, len(idxs))
	for k, i := range idxs {
		slice[k] = fan[i]
	}
	sub[plan.field] = slice
	payload, err := json.Marshal(sub)
	if err != nil {
		return nil, url, err
	}
	// Retry candidates: the assigned member first, then the rest of the read
	// set in order.
	candidates := make([]string, 0, len(set))
	candidates = append(candidates, url)
	for _, m := range set {
		if m != url {
			candidates = append(candidates, m)
		}
	}
	// Shard latency counts failures too: a timed-out shard is exactly the
	// tail the histogram exists to expose. Retries fold into their shard's
	// observation — the client experienced the whole sequence.
	start := time.Now()
	defer r.shardLat[plan.path].ObserveSince(start)
	resp, served, err := r.tryRead(ctx, candidates, func(cctx context.Context, target string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, target+plan.path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(httpapi.RequestIDHeader, id)
		return req, nil
	})
	if err != nil {
		if served == "" {
			served = url
		}
		return nil, served, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, served, errorFrom(resp)
	}
	var out struct {
		Items []map[string]any `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, served, fmt.Errorf("decoding shard response: %w", err)
	}
	if len(out.Items) != len(idxs) {
		return nil, served, fmt.Errorf("shard returned %d items for %d inputs", len(out.Items), len(idxs))
	}
	return out.Items, served, nil
}

// shardErrorItem is the degraded placeholder for one item of a failed
// shard, shaped like the engine's own per-item error responses and carrying
// the request id so a degraded item can be traced end to end.
func shardErrorItem(plan scatterPlan, entry any, url, id string, err error) map[string]any {
	item := map[string]any{
		"err":        fmt.Sprintf("shard %s: %v", url, err),
		ServedByKey:  url,
		"request_id": id,
	}
	switch plan.field {
	case "queries":
		item["query"] = entry
	case "methods":
		item["method"] = entry
	}
	return item
}

// healthMember is one member's row in the router's /healthz body.
type healthMember struct {
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Role  string `json:"role,omitempty"`
	Fails int    `json:"fails,omitempty"`
	// Breaker is the member's circuit-breaker state: "closed" (healthy),
	// "open" (refusing traffic until the cooldown runs) or "half-open" (one
	// probe in flight deciding which way it goes).
	Breaker string `json:"breaker"`
}

// serveHealth reports the router's member view: 200 while the primary is
// alive, 503 once it is not (failover may still be in flight).
func (r *Router) serveHealth(w http.ResponseWriter) {
	r.mu.Lock()
	primary := r.primary
	members := make([]healthMember, 0, len(r.cfg.Members))
	primaryAlive := false
	for _, url := range r.cfg.Members {
		m := r.members[url]
		hm := healthMember{URL: url, Alive: m.alive, Fails: m.fails, Breaker: r.breakers[url].State()}
		if m.status != nil {
			hm.Role = m.status.Role
		}
		if url == primary && m.alive {
			primaryAlive = true
		}
		members = append(members, hm)
	}
	r.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if !primaryAlive {
		status = http.StatusServiceUnavailable
		state = "no-primary"
	}
	httpapi.WriteJSON(w, status, map[string]any{
		"status":  state,
		"primary": primary,
		"members": members,
	})
}

// serveMetrics exposes the router's own counters and latency histograms in
// the Prometheus text format (the members' serving metrics live on their own
// /metrics).
func (r *Router) serveMetrics(w http.ResponseWriter) {
	r.mu.Lock()
	up := make([]float64, len(r.cfg.Members))
	for i, url := range r.cfg.Members {
		if r.members[url].alive {
			up[i] = 1
		}
	}
	r.mu.Unlock()
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	fw := obs.NewFamilyWriter(w)
	fw.Family("searouter_member_up", "gauge", "Member answers health probes (1) or is considered dead (0).")
	for i, url := range r.cfg.Members {
		fw.Sample(up[i], obs.Label{Name: "member", Value: url})
	}
	fw.Family("searouter_breaker_state", "gauge", "Member circuit-breaker state: 0 closed, 1 open, 2 half-open.")
	for _, url := range r.cfg.Members {
		fw.Sample(float64(r.breakers[url].stateValue()), obs.Label{Name: "member", Value: url})
	}
	fw.Family("searouter_promotions_total", "counter", "Follower promotions performed by this router.")
	fw.Sample(float64(r.promotions.Load()))
	fw.Family("searouter_shard_errors_total", "counter", "Scatter shards that failed and degraded to per-item errors.")
	fw.Sample(float64(r.shardErrs.Load()))
	fw.Family("searouter_read_retries_total", "counter", "Read attempts beyond the first (/search and scatter shards).")
	fw.Sample(float64(r.retries.Load()))
	fw.Family("searouter_shard_latency_seconds", "histogram",
		"Upstream call latency by route: per shard for /batch and /compare, per proxied request for /search, and every primary-forwarded request under \"forward\".")
	for _, p := range routerPaths {
		fw.Histogram(r.shardLat[p].Snapshot(), 1e-9, obs.Label{Name: "path", Value: p})
	}
	fw.Family("searouter_fanout_width", "histogram", "Shards per scatter-gather request (unitless width, not seconds).")
	for _, p := range []string{"/batch", "/compare"} {
		fw.Histogram(r.fanWidth[p].Snapshot(), 1, obs.Label{Name: "path", Value: p})
	}
}
