package engine

// Overload-control tests: MaxInFlight admission bounds cache-miss
// computations and sheds the excess fast with cserr.ErrOverloaded, which
// internal/httpapi turns into 429 + Retry-After.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cserr"
	"repro/internal/faults"
)

// TestMaxInFlightSheds holds one slow computation in flight (an injected
// engine.search delay keeps it there deterministically) and checks that
// concurrent cache-miss queries shed instead of queueing: ErrOverloaded,
// the Shed counter, and the shed latency histogram all fire — and the
// engine serves normally again once the slot frees.
func TestMaxInFlightSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	e, d, _ := testEngine(t, cfg)
	nodes := d.QueryNodes(3, 6, 3)

	faults.Enable(21, faults.Spec{Site: "engine.search", Count: 1, Delay: 300 * time.Millisecond})
	defer faults.Disable()

	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		if _, err := e.Query(context.Background(), testReq(nodes[0])); err != nil {
			t.Errorf("the slow holder query failed: %v", err)
		}
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the holder take the in-flight slot

	// Distinct query nodes: no result-cache hit, no coalesced join — these
	// are genuine computations and the admission gate must shed them.
	for _, q := range nodes[1:] {
		_, qm, err := e.QueryWithMetrics(context.Background(), testReq(q))
		if !errors.Is(err, cserr.ErrOverloaded) {
			t.Fatalf("query %d over the in-flight bound: err=%v, want ErrOverloaded", q, err)
		}
		if !qm.Shed {
			t.Fatalf("shed query's metrics not marked: %+v", qm)
		}
	}
	wg.Wait()

	if shed := e.Stats().Shed; shed != 2 {
		t.Fatalf("Stats.Shed = %d, want 2", shed)
	}
	if e.Latency()[StageTotalShed].Count != 2 {
		t.Fatalf("shed latency observations = %d, want 2", e.Latency()[StageTotalShed].Count)
	}

	// Slot free again: the same queries now compute.
	for _, q := range nodes[1:] {
		if _, err := e.Query(context.Background(), testReq(q)); err != nil {
			t.Fatalf("query %d after the slot freed: %v", q, err)
		}
	}
	if shed := e.Stats().Shed; shed != 2 {
		t.Fatalf("Stats.Shed grew to %d after recovery, want still 2", shed)
	}
}

// TestCacheHitsNeverShed: with the in-flight slot held, a query whose
// result is already cached must still answer — shedding exists to protect
// computation, and a cache hit costs none.
func TestCacheHitsNeverShed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	e, d, _ := testEngine(t, cfg)
	nodes := d.QueryNodes(2, 6, 3)

	// Warm the cache before anything is slow.
	if _, err := e.Query(context.Background(), testReq(nodes[0])); err != nil {
		t.Fatal(err)
	}

	faults.Enable(22, faults.Spec{Site: "engine.search", Count: 1, Delay: 300 * time.Millisecond})
	defer faults.Disable()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.Query(context.Background(), testReq(nodes[1])) // holder
	}()
	time.Sleep(50 * time.Millisecond)

	if _, qm, err := e.QueryWithMetrics(context.Background(), testReq(nodes[0])); err != nil {
		t.Fatalf("cached query shed under load: %v", err)
	} else if !qm.ResultHit {
		t.Fatalf("expected a result-cache hit: %+v", qm)
	}
	wg.Wait()
}
