package cluster

// Fault-tolerance tests for the router's read path: retries against a
// different replica, circuit breakers opening and recovering, and the
// degradation statuses when nothing is left to retry against.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
)

// flakyMember is an httptest member that always answers health probes as an
// in-sync follower of primaryURL but answers every serving request with the
// configured status while broken.
func flakyMember(t *testing.T, primaryURL string, status *atomic.Int32) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ReplicationPath {
			httpapi.WriteJSON(w, http.StatusOK, NodeStatus{
				Role:     RoleFollower,
				Primary:  primaryURL,
				Datasets: []ReplicaStatus{{Graph: "g"}},
			})
			return
		}
		http.Error(w, "injected member failure", int(status.Load()))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterRetryHealsShard: a member that fails every serving request
// costs nothing when retries are on — a /batch it fails replays whole
// against the primary, which serves every item.
func TestRouterRetryHealsShard(t *testing.T) {
	_, pts := newPrimary(t)
	var status atomic.Int32
	status.Store(http.StatusInternalServerError)
	flaky := flakyMember(t, pts.URL, &status)
	router, err := NewRouter(RouterConfig{
		Members:           []string{pts.URL, flaky.URL},
		ReplicationFactor: 2,
		ProbeEvery:        time.Hour,
		ShardTimeout:      2 * time.Second,
		RetryBase:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router)
	defer rts.Close()

	// Round-robin sends the first or the second /batch to the flaky member
	// first; both must come back whole from the primary.
	for i := range 2 {
		st, body, hdr := postJSON(t, rts.URL+"/batch",
			`{"graph":"g","queries":[0,1,2,3],"method":"structural","k":2}`)
		if st != http.StatusOK {
			t.Fatalf("/batch %d: %d %v", i, st, body)
		}
		if served := hdr.Get(ServedByHeader); served != pts.URL {
			t.Fatalf("/batch %d served by %q, want the healthy primary %s", i, served, pts.URL)
		}
		items, _ := body["items"].([]any)
		if len(items) != 4 {
			t.Fatalf("/batch %d items: %d, want 4", i, len(items))
		}
		for _, it := range items {
			if errStr, _ := it.(map[string]any)["err"].(string); errStr != "" {
				t.Fatalf("item failed despite a healthy replica to retry against: %v", it)
			}
		}
	}
	if router.retries.Load() == 0 {
		t.Fatal("no retries recorded; the flaky member was never even tried")
	}
}

// TestRouterSearchRetriesAndBreaker: /search and POST /compare keep
// answering while one member fails everything; after enough consecutive
// failures the member's breaker opens (visible in /healthz and /metrics) so
// it stops absorbing first attempts, and once the member heals the
// half-open probe closes the breaker again.
func TestRouterSearchRetriesAndBreaker(t *testing.T) {
	_, pts := newPrimary(t)
	var status atomic.Int32
	status.Store(http.StatusInternalServerError)
	flaky := flakyMember(t, pts.URL, &status)
	router, err := NewRouter(RouterConfig{
		Members:           []string{pts.URL, flaky.URL},
		ReplicationFactor: 2,
		ProbeEvery:        time.Hour,
		ShardTimeout:      2 * time.Second,
		RetryBase:         time.Millisecond,
		BreakerThreshold:  2,
		BreakerCooldown:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router)
	defer rts.Close()

	search := func() (int, string) {
		t.Helper()
		resp, err := http.Get(rts.URL + "/search?graph=g&q=0&method=structural&k=2")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get(ServedByHeader)
	}
	// A POST /compare is the same kind of read: one replica answers it
	// whole, and a failed attempt is retried on the next.
	compare := func(i int) {
		t.Helper()
		st, body, hdr := postJSON(t, rts.URL+"/compare",
			`{"graph":"g","q":0,"methods":["structural","sea"],"k":2}`)
		if st != http.StatusOK {
			t.Fatalf("/compare %d: status %d %v", i, st, body)
		}
		if served := hdr.Get(ServedByHeader); served != pts.URL {
			t.Fatalf("/compare %d served by %q, want the healthy primary", i, served)
		}
		items, _ := body["items"].([]any)
		if len(items) != 2 {
			t.Fatalf("/compare %d: %d items, want 2: %v", i, len(items), body)
		}
		for j, want := range []string{"structural", "sea"} {
			if m, _ := items[j].(map[string]any)["method"].(string); m != want {
				t.Fatalf("/compare %d item %d is %q, want %q", i, j, m, want)
			}
		}
		if best, _ := body["best"].(string); best == "" {
			t.Fatalf("/compare %d has no best: %v", i, body)
		}
	}
	// Every request must succeed: round-robin lands half of them on the
	// flaky member first, and those retry onto the primary.
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			compare(i)
			continue
		}
		st, served := search()
		if st != http.StatusOK {
			t.Fatalf("/search %d: status %d", i, st)
		}
		if served != pts.URL {
			t.Fatalf("/search %d served by %q, want the healthy primary", i, served)
		}
	}
	if got := router.breakers[flaky.URL].State(); got != "open" {
		t.Fatalf("flaky member's breaker: %s, want open after consecutive failures", got)
	}
	// The open breaker is visible on both surfaces.
	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(hbody), `"breaker":"open"`) {
		t.Fatalf("/healthz shows no open breaker: %s", hbody)
	}
	resp, err = http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("searouter_breaker_state{member=%q} 1", flaky.URL)
	if !strings.Contains(string(mbody), want) {
		t.Fatalf("/metrics missing %s:\n%s", want, mbody)
	}

	// Heal the member and wait out the cooldown: the next requests let the
	// half-open probe through and the breaker closes.
	status.Store(http.StatusOK)
	time.Sleep(60 * time.Millisecond)
	waitFor(t, 2*time.Second, "breaker to close", func() bool {
		search()
		return router.breakers[flaky.URL].State() == "closed"
	})
}

// TestRouterAllMembersShedding: when every member answers 429 the router
// reports 429 too (with a Retry-After hint), not a bogus 502 — the cluster
// is overloaded, not broken.
func TestRouterAllMembersShedding(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ReplicationPath {
			httpapi.WriteJSON(w, http.StatusOK, NodeStatus{Role: RolePrimary,
				Datasets: []ReplicaStatus{{Graph: "g"}}})
			return
		}
		w.Header().Set("Retry-After", "1")
		httpapi.WriteError(w, http.StatusTooManyRequests, fmt.Errorf("overloaded"))
	}))
	defer busy.Close()
	router, err := NewRouter(RouterConfig{
		Members:      []string{busy.URL},
		ProbeEvery:   time.Hour,
		ShardTimeout: 2 * time.Second,
		Retries:      1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router)
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/search?graph=g&q=0&method=structural&k=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status: %d, want 429 passed through", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "request_id") {
		t.Fatalf("router error carries no request_id: %s", body)
	}
}

// TestRouterBreakersOpenAnswers503: with the only member's breaker open
// and no cooldown elapsed, reads fail fast with 503 + Retry-After instead
// of hammering the broken member.
func TestRouterBreakersOpenAnswers503(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusInternalServerError)
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ReplicationPath {
			httpapi.WriteJSON(w, http.StatusOK, NodeStatus{Role: RolePrimary,
				Datasets: []ReplicaStatus{{Graph: "g"}}})
			return
		}
		http.Error(w, "down", int(status.Load()))
	}))
	defer down.Close()
	router, err := NewRouter(RouterConfig{
		Members:          []string{down.URL},
		ProbeEvery:       time.Hour,
		ShardTimeout:     2 * time.Second,
		Retries:          1,
		RetryBase:        time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router)
	defer rts.Close()

	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(rts.URL + "/search?graph=g&q=0&method=structural&k=2")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		io.Copy(io.Discard, resp.Body)
		return resp
	}
	// First request burns the breaker threshold (attempt + retry), answering
	// 502 for the genuinely-failing upstream.
	if resp := get(); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status while failing: %d, want 502", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 without a Retry-After hint")
	}
	if got := router.breakers[down.URL].State(); got != "open" {
		t.Fatalf("breaker: %s, want open", got)
	}
	// Now the breaker refuses before any call goes out: 503, fast.
	if resp := get(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status with open breaker: %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestRouterFailedReadSpan: when every read-set member answers 500, the
// router's 502 is recorded in its span with no member named as having
// served it; a forward the primary answered names the primary and its
// status.
func TestRouterFailedReadSpan(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ReplicationPath {
			httpapi.WriteJSON(w, http.StatusOK, NodeStatus{Role: RolePrimary,
				Datasets: []ReplicaStatus{{Graph: "g"}}})
			return
		}
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer down.Close()
	var status atomic.Int32
	status.Store(http.StatusInternalServerError)
	flaky := flakyMember(t, down.URL, &status)
	router, err := NewRouter(RouterConfig{
		Members:           []string{down.URL, flaky.URL},
		ReplicationFactor: 2,
		ProbeEvery:        time.Hour,
		ShardTimeout:      2 * time.Second,
		RetryBase:         time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rts := httptest.NewServer(router)
	defer rts.Close()

	for _, path := range []string{"/search?graph=g&q=0&k=2", "/stats?graph=g"} {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	spans := router.Trace(2)
	if len(spans) != 2 {
		t.Fatalf("router holds %d spans, want 2", len(spans))
	}
	if sp := spans[1]; sp.Path != "/search" || sp.Status != http.StatusBadGateway || sp.ServedBy != "" {
		t.Fatalf("failed /search span %+v, want status 502 and no served_by", sp)
	}
	if sp := spans[0]; sp.Path != "/stats" || sp.Status != http.StatusInternalServerError || sp.ServedBy != down.URL {
		t.Fatalf("forwarded /stats span %+v, want status 500 served by %s", sp, down.URL)
	}
}
