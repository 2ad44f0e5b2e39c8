package sea_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/attr"
	"repro/internal/graph"
	"repro/internal/query"
	"repro/internal/sea"
)

// TestPaddingAddsNoBytes: what query.Run allocates for a SEA search — the
// engine's miss path — does not grow with nodes the
// search never reaches. On twitch padded with 10⁶ isolated nodes each search
// allocates within 64 KB of what it does on twitch; one f vector over the
// padded graph is 8 MB. The pooled workspaces are grown to the padded size
// first: their per-node arrays are paid once per workspace, not per search.
func TestPaddingAddsNoBytes(t *testing.T) {
	c := sea.PaddedTwitch(t)
	ctx := context.Background()
	request := func(pq sea.PaddingQuery) query.Request {
		return query.Request{Query: pq.Q, Model: pq.Model, K: pq.K, Seed: pq.Seed}
	}
	run := func(g graph.Store, m *attr.Metric, req query.Request) {
		if _, err := query.Run(ctx, g, m, req); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
	// Serial searches take the free list's workspaces in turn, and the two
	// models grow different arrays.
	for _, pq := range []sea.PaddingQuery{c.Queries[0], c.Queries[len(c.Queries)-1]} {
		for range 2*runtime.GOMAXPROCS(0) + 1 {
			run(c.Padded, c.MPadded, request(pq))
		}
	}
	const reps = 4
	allocated := func(g graph.Store, m *attr.Metric, req query.Request) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			run(g, m, req)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	for _, pq := range c.Queries {
		req := request(pq)
		base := allocated(c.Base, c.MBase, req)
		pad := allocated(c.Padded, c.MPadded, req)
		if d := pad - base; d >= 64<<10 || d <= -64<<10 {
			t.Errorf("%+v: query.Run allocates %d B per search on twitch, %d B padded", pq, base, pad)
		}
	}
}
