package engine

// Batch answers what the result cache holds on the calling goroutine and
// pools only the rest. These tests hold that split to Batch's contract:
// nothing is started for a cached batch, and every item moves every counter,
// histogram and span ring exactly as the same request issued on its own.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/query"
)

func TestBatchAllCachedStartsNoGoroutine(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())
	ctx := context.Background()
	reqs := batchReqs(d.QueryNodes(8, 2, 9))
	if _, err := e.Batch(ctx, reqs); err != nil { // warm
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	// A go statement costs its closure, and the pool its channel: a cached
	// batch allocates the result slice and nothing else.
	allocs := testing.AllocsPerRun(20, func() {
		items, err := e.Batch(ctx, reqs)
		if err != nil || !items[len(items)-1].Metrics.ResultHit {
			t.Fatalf("cached batch: err=%v last=%+v", err, items[len(items)-1].Metrics)
		}
	})
	if allocs > 1 {
		t.Errorf("a fully cached batch of %d allocates %v times, want 1 (the result slice)", len(reqs), allocs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d → %d across cached batches", before, after)
	}
}

// tally is everything a request leaves behind in an engine.
type tally struct {
	queries, hits, misses, runs uint64
	totalHit, totalMiss         uint64
	spans                       int
}

func tallyOf(e *Engine) tally {
	s, l := e.Stats(), e.Latency()
	return tally{s.Queries, s.ResultHits, s.ResultMisses, s.SearchRuns,
		l[StageTotalHit].Count, l[StageTotalMiss].Count, len(e.Trace(0))}
}

func TestBatchMixedCountsOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 1 // the duplicate follows its twin, as it does one by one
	ctx := context.Background()
	qs := testDataset(t).QueryNodes(4, 2, 9)
	// Two cached, two uncached, and a repeat of an uncached one.
	mixed := batchReqs([]graph.NodeID{qs[0], qs[2], qs[1], qs[3], qs[2]})

	serial, _, _ := testEngine(t, cfg)
	batched, _, _ := testEngine(t, cfg)
	for _, e := range []*Engine{serial, batched} {
		if _, err := e.Batch(ctx, batchReqs(qs[:2])); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range mixed {
		if _, _, err := serial.QueryWithMetrics(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	items, err := batched.Batch(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	for i, hit := range []bool{true, false, true, false, true} {
		if items[i].Err != nil || items[i].Metrics.ResultHit != hit || items[i].Request != mixed[i] {
			t.Errorf("item %d: err=%v hit=%v, want hit=%v in request order", i, items[i].Err, items[i].Metrics.ResultHit, hit)
		}
	}
	if got, want := tallyOf(batched), tallyOf(serial); got != want {
		t.Errorf("batch left %+v\none by one left %+v", got, want)
	}
}

// TestBatchMissesStillOverlap: what the cache does not answer still goes
// through the pool — two held computations run side by side, each span
// starting before the other ends.
func TestBatchMissesStillOverlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	e, d, _ := testEngine(t, cfg)
	ctx := context.Background()
	reqs := batchReqs(d.QueryNodes(3, 2, 9))
	if _, err := e.Batch(ctx, reqs[:1]); err != nil {
		t.Fatal(err)
	}
	faults.Enable(29, faults.Spec{Site: "engine.search", Count: 2, Delay: 100 * time.Millisecond})
	defer faults.Disable()
	items, err := e.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !items[0].Metrics.ResultHit || items[1].Metrics.ResultHit || items[2].Metrics.ResultHit {
		t.Fatalf("want hit, miss, miss: %+v", items)
	}
	a, b := e.Trace(2)[0], e.Trace(2)[1]
	if a.StartNS >= b.StartNS+b.TotalNS || b.StartNS >= a.StartNS+a.TotalNS {
		t.Fatalf("the two misses ran one after the other: [%d +%d] and [%d +%d]", a.StartNS, a.TotalNS, b.StartNS, b.TotalNS)
	}
}

// TestBatchCancelledMarksUnstarted: under a cancelled context the cached
// items are answered, as Query answers them, and everything else carries the
// context's error.
func TestBatchCancelledMarksUnstarted(t *testing.T) {
	e, d, _ := testEngine(t, DefaultConfig())
	reqs := batchReqs(d.QueryNodes(4, 2, 9))
	if _, err := e.Batch(context.Background(), reqs[:1]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items, err := e.Batch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || !items[0].Metrics.ResultHit {
		t.Errorf("cached item: %+v", items[0])
	}
	for i, it := range items[1:] {
		if it.Err == nil || it.Metrics.Err == "" || it.Request != reqs[i+1] {
			t.Errorf("uncached item %d under a cancelled context: %+v", i+1, it)
		}
	}
}

// TestBatchPoolFillsTheSemaphore: a batch of distinct misses keeps every
// MaxConcurrent slot busy at once. The pool is as wide as the semaphore, so
// with every computation held in the "engine.search" delay all cap(e.sem)
// of them sit on it together.
func TestBatchPoolFillsTheSemaphore(t *testing.T) {
	e, _, q := testEngine(t, DefaultConfig())
	reqs := make([]query.Request, cap(e.sem))
	for i := range reqs {
		reqs[i] = testReq(q)
		reqs[i].Seed = int64(i + 1) // distinct keys: no hit, no coalescing
	}
	faults.Enable(31, faults.Spec{Site: "engine.search", Delay: 2 * time.Second})
	defer faults.Disable()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Batch(context.Background(), reqs); err != nil {
			t.Error(err)
		}
	}()
	defer func() { <-done }()
	deadline := time.After(10 * time.Second)
	for peak := 0; ; {
		peak = max(peak, len(e.sem))
		if peak == cap(e.sem) {
			return
		}
		select {
		case <-done:
			t.Fatalf("batch of %d misses held at most %d of %d slots at once", len(reqs), peak, cap(e.sem))
		case <-deadline:
			t.Fatalf("after 10s %d of %d slots held", peak, cap(e.sem))
		case <-time.After(time.Millisecond):
		}
	}
}
