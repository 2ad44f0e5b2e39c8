package engine

// Live graph updates. Apply folds a batch of mutate.Deltas into the serving
// state without a reload or an engine hot-swap:
//
//  1. a mutate.Session accumulates the deltas in a graph.Overlay and
//     maintains the coreness and per-edge trussness indexes incrementally
//     (bounded re-computation over the affected scope, never the graph);
//  2. the overlay materializes into a fresh immutable CSR graph and the
//     metric is rebound to it, keeping the mounted normalizer table. The
//     graph copies only what the batch wrote: touched rows are merged, each
//     run of untouched rows is one block copy, and a column the batch did
//     not write (adjacency, text, numbers) is the previous generation's
//     array, shared. Graphs are immutable, so sharing is safe; with a mapped
//     base it relies on the catalog unmapping retired mappings only at
//     Catalog.Close;
//  3. cache fills from pre-mutation computations are fenced off (epoch
//     bump), then the result cache is swept with *scoped* invalidation: an
//     entry is dropped only if its query node lies in the mutation's
//     affected region, everything else stays warm;
//  4. the new state publishes with one atomic pointer store; in-flight
//     queries finish on the generation they loaded at entry.
//
// The affected region of a result entry (q, k, model) is sound by
// construction: an outcome can change only if the maximal connected
// k-core/k-truss around q (before or after the mutation) contains a touched
// node — a mutation endpoint, an index-changed node, or an attribute-changed
// node. The sweep reaches exactly the nodes connected to the touched set
// through nodes whose index level (max of old and new) is ≥ k, in the union
// of the old and new adjacencies, which covers both sides conservatively.
// The result cache is the only per-query state the engine keeps, so it is
// the only thing swept.

import (
	"fmt"
	"iter"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
)

// ApplyResult reports what one mutation batch did.
type ApplyResult struct {
	// Applied is the number of deltas folded in (all of them: a batch is
	// all-or-nothing).
	Applied int `json:"applied"`
	// NewNodes lists the IDs assigned to add_node deltas, in batch order.
	NewNodes []graph.NodeID `json:"new_nodes,omitempty"`
	// Version is the graph generation after the batch.
	Version uint64 `json:"version"`
	// Nodes/Edges describe the post-mutation graph.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// ResultsInvalidated counts result-cache entries dropped by the scoped
	// sweep.
	ResultsInvalidated int `json:"results_invalidated"`
	// ApplyNS is the apply stage: session fold, materialization and index
	// rebind. InvalidateNS is the scoped cache sweep. (Journal timing is the
	// journal owner's — see catalog.MutateResult.JournalNS.)
	ApplyNS      int64 `json:"apply_ns"`
	InvalidateNS int64 `json:"invalidate_ns"`
	// TouchedNodes is the size of the mutation's touched set (endpoints,
	// index-changed and attribute-changed nodes). RegionNodes is the size of
	// the union of affected regions the sweep actually expanded — regions
	// are computed lazily per cached (model, k), so 0 means no cached entry
	// required an expansion, not that the mutation touched nothing.
	TouchedNodes int `json:"touched_nodes"`
	RegionNodes  int `json:"region_nodes"`
	// Groups is the number of caller groups the batch coalesced (1 for a
	// plain Apply); GroupsApplied counts the groups that validated and were
	// folded in — rejected groups are skipped whole, they never partially
	// apply.
	Groups        int `json:"groups,omitempty"`
	GroupsApplied int `json:"groups_applied,omitempty"`
}

// GroupOutcome reports one caller group of an ApplyGroups batch: either the
// group applied whole (Applied, with the node IDs its add_node deltas were
// assigned), or it was rejected whole (Err identifies the failing delta as
// "delta i: ..." — the same error Apply would return for the group alone).
type GroupOutcome struct {
	Applied  bool
	NewNodes []graph.NodeID
	Err      error
}

// Apply folds one batch of deltas into the serving state, maintaining the
// admission indexes incrementally and invalidating only the cache entries
// whose query node falls in the affected region. The batch is
// all-or-nothing: on error nothing changes and the error wraps
// cserr.ErrInvalidRequest. Apply serializes with other Apply calls; queries
// proceed concurrently throughout.
func (e *Engine) Apply(deltas []mutate.Delta) (*ApplyResult, error) {
	res, _, err := e.ApplyGroups([][]mutate.Delta{deltas})
	return res, err
}

// ApplyGroups folds a group-commit batch — several callers' delta groups —
// into the serving state as ONE generation: one incremental-maintenance
// session, one epoch fence, one scoped cache sweep over the union of the
// touched regions, one atomic publish. Each group is all-or-nothing
// individually: a group that fails validation is rejected whole (its
// GroupOutcome carries the error) while the others still apply, exactly as
// if the groups had been applied sequentially and the failing ones skipped.
//
// The fold runs in three stages:
//
//   - prepare: every group validates against a throwaway overlay
//     (mutate.Preflight) so rejections are decided before any index
//     maintenance runs;
//   - maintain: the admitted groups stream through one mutate.Session —
//     coreness and trussness update incrementally once over the whole
//     batch, and the overlay materializes once;
//   - publish: one engState generation (version advances by exactly 1,
//     whatever the group count), one scoped invalidation over the union of
//     every group's touched region.
//
// The error is non-nil only when NO group applied (then it is the first
// group's error, and the serving state is untouched). Outcomes always has
// one entry per input group.
func (e *Engine) ApplyGroups(groups [][]mutate.Delta) (*ApplyResult, []GroupOutcome, error) {
	if len(groups) == 0 {
		return nil, nil, cserr.Invalidf("engine: empty commit batch")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Stage clock starts after the lock: ApplyNS times the work, not the
	// queueing behind other batches (the caller's wall clock covers that).
	tApply := time.Now()
	old := e.st.Load()
	outs := make([]GroupOutcome, len(groups))

	// Prepare: validate every group against a throwaway overlay.
	pf := mutate.NewPreflight(old.g)
	for gi, g := range groups {
		if len(g) == 0 {
			outs[gi].Err = cserr.Invalidf("engine: empty mutation batch")
			continue
		}
		if err := pf.Group(g); err != nil {
			outs[gi].Err = err
		}
	}
	admitted := pf.Admitted()
	if len(admitted) == 0 {
		return nil, outs, firstGroupErr(outs)
	}

	// The first mutation fills the per-edge trussness table from the
	// construction generation's column (old is that generation until a
	// batch applies); from then on it is maintained incrementally.
	if e.etruss == nil {
		e.etruss = edgeTrussMap(old.g, old.etruss)
	}

	// Maintain: one session folds every admitted group; the admission
	// indexes update incrementally across the whole batch, in e.etruss
	// itself. Nothing from here on can fail: the session's overlay edits are
	// the ones preflight made over the same base, and the metric rebinds
	// with the γ and normalizer width it was built with. A failure is a
	// broken invariant with the table half written, so it panics.
	sess := mutate.NewSession(old.g, old.core, e.etruss)
	gi := 0
	for _, g := range admitted {
		for outs[gi].Err != nil {
			gi++ // skip rejected groups: admitted is the accepted subsequence
		}
		nn := len(sess.NewNodes())
		for _, d := range g {
			if err := sess.Apply(d); err != nil {
				panic(fmt.Sprintf("engine: admitted delta %+v failed: %v", d, err))
			}
		}
		outs[gi].Applied = true
		outs[gi].NewNodes = sess.NewNodes()[nn:]
		gi++
	}

	newG := sess.Materialize()
	m, err := attr.NewMetricWithNormalizer(newG, old.metric.Gamma(), old.metric.Normalizer())
	if err != nil {
		panic(fmt.Sprintf("engine: metric rebind after an admitted batch failed: %v", err))
	}
	st := &engState{g: newG, metric: m, core: sess.Core(), truss: sess.NodeTruss(old.truss), version: old.version + 1}
	applyNS := time.Since(tApply).Nanoseconds()

	// Publish. Fence: the write-locked bump waits out in-flight cache fills
	// and makes every later fill observe the new epoch (and skip itself,
	// since it computed against the old state) — so the sweep below removes
	// every stale entry for good.
	e.pubMu.Lock()
	e.epoch.Add(1)
	e.pubMu.Unlock()
	res := &ApplyResult{
		Applied:       sess.Applied(),
		NewNodes:      sess.NewNodes(),
		Version:       st.version,
		Nodes:         newG.NumNodes(),
		Edges:         newG.NumEdges(),
		ApplyNS:       applyNS,
		Groups:        len(groups),
		GroupsApplied: len(admitted),
	}
	tInv := time.Now()
	sw := e.invalidateScoped(old, st, sess)
	res.InvalidateNS = time.Since(tInv).Nanoseconds()
	res.ResultsInvalidated, res.TouchedNodes, res.RegionNodes = sw.results, sw.touched, sw.region
	e.lat[StageMutateApply].Observe(res.ApplyNS)
	e.lat[StageMutateInvalidate].Observe(res.InvalidateNS)
	e.st.Store(st)

	e.ctr.mutations.Add(1)
	e.ctr.deltas.Add(uint64(sess.Applied()))
	e.ctr.resultInvalidation.Add(uint64(res.ResultsInvalidated))
	return res, outs, nil
}

// firstGroupErr returns the first rejected group's error — the batch-level
// error when no group applied.
func firstGroupErr(outs []GroupOutcome) error {
	for _, o := range outs {
		if o.Err != nil {
			return o.Err
		}
	}
	return cserr.Invalidf("engine: no group in the commit batch applied")
}

// edgeTrussMap keys g's per-edge trussness column by endpoint pair, the
// form the incremental maintenance works on.
func edgeTrussMap(g graph.Adjacency, col []int32) map[mutate.Edge]int32 {
	out := make(map[mutate.Edge]int32, len(col))
	for i, e := range edges(g) {
		out[e] = col[i]
	}
	return out
}

// edges yields every undirected edge of g once, as (i, (u,v)) with u < v,
// in ascending (u,v) order: i is the edge's place in a per-edge column,
// and its ID in truss.EdgeIndex.
func edges(g graph.Adjacency) iter.Seq2[int, mutate.Edge] {
	return func(yield func(int, mutate.Edge) bool) {
		var nbr []graph.NodeID
		i := 0
		for u := range graph.NodeID(g.NumNodes()) {
			for _, v := range g.NeighborsInto(&nbr, u) {
				if v <= u {
					continue
				}
				if !yield(i, mutate.Edge{U: u, V: v}) {
					return
				}
				i++
			}
		}
	}
}

// sweepResult reports what one scoped invalidation pass did: result entries
// dropped plus the affected-region accounting surfaced in ApplyResult.
type sweepResult struct {
	results int
	touched int // structural + attribute touched nodes
	region  int // union of the regions actually expanded
}

// regionKey names one affected region: the result entries of one model at
// one k share it.
type regionKey struct {
	model sea.Model
	k     int
}

// sweepScratch is invalidateScoped's reusable state, guarded by Engine.mu:
// one stamped set per region the current sweep expanded (keys[i] names
// regions[i]), their union for RegionNodes, and the expansion queue. Sets
// and queue keep their arrays from batch to batch, so a sweep allocates
// only when the graph or the number of cached (model, k) pairs grows.
type sweepScratch struct {
	keys    []regionKey
	regions []graph.NodeSet
	union   graph.NodeSet
	queue   []graph.NodeID
	nbr     []graph.NodeID
	touched []graph.NodeID
}

// invalidateScoped sweeps the result cache against the mutation's affected
// region; see the file comment for the soundness argument.
func (e *Engine) invalidateScoped(old, new *engState, sess *mutate.Session) sweepResult {
	sc := &e.sweep
	sc.touched = append(append(sc.touched[:0], sess.StructuralNodes()...), sess.AttrNodes()...)
	sw := sweepResult{touched: len(sc.touched)}
	oldN, newN := old.g.NumNodes(), new.g.NumNodes()
	sc.keys = sc.keys[:0]
	sc.union.Reset(newN)

	// expand grows region from the touched set over the union of old and new
	// adjacencies, entering a node only when level(v) ≥ k and expanding only
	// through entered nodes.
	expand := func(region *graph.NodeSet, level func(graph.NodeID) int32, k int) {
		region.Reset(newN)
		queue := sc.queue[:0]
		enter := func(v graph.NodeID) {
			if region.Add(v) {
				sc.union.Add(v)
				queue = append(queue, v)
			}
		}
		for _, t := range sc.touched {
			enter(t)
		}
		for i := 0; i < len(queue); i++ {
			x := queue[i]
			if int(level(x)) < k {
				continue // in the region, but no level-k path runs through it
			}
			for _, g := range [...]graph.Store{old.g, new.g} {
				if int(x) >= g.NumNodes() {
					continue
				}
				for _, w := range g.NeighborsInto(&sc.nbr, x) {
					if int(level(w)) >= k {
						enter(w)
					}
				}
			}
		}
		sc.queue = queue
	}
	// levelOf is max(old, new) of one admission index; v may be a node the
	// batch appended (no old value).
	levelOf := func(oldIdx, newIdx []int32) func(graph.NodeID) int32 {
		return func(v graph.NodeID) int32 {
			l := newIdx[v]
			if int(v) < oldN && oldIdx[v] > l {
				l = oldIdx[v]
			}
			return l
		}
	}
	coreLevel, trussLevel := levelOf(old.core, new.core), levelOf(old.truss, new.truss)

	// regionFor returns the (model, k) region, expanding it on first use.
	regionFor := func(model sea.Model, k int) *graph.NodeSet {
		rk := regionKey{model, k}
		for i, key := range sc.keys {
			if key == rk {
				return &sc.regions[i]
			}
		}
		i := len(sc.keys)
		sc.keys = append(sc.keys, rk)
		if i == len(sc.regions) {
			sc.regions = append(sc.regions, graph.NodeSet{})
		}
		level := coreLevel
		if model == sea.KTruss {
			level = trussLevel
		}
		expand(&sc.regions[i], level, k)
		return &sc.regions[i]
	}

	sw.results = e.results.sweep(func(req query.Request, _ *query.Outcome) bool {
		// Only validated requests fill the cache, so a cached q is in range;
		// the check keeps a broken invariant from panicking under the lock.
		return int(req.Query) < newN && regionFor(req.Model, req.K).Has(req.Query)
	})

	// Affected-region accounting: the union of every region the sweep
	// expanded. Regions are built lazily per cached (model, k), so this
	// reflects the expansion work done, not a hypothetical full region.
	sw.region = sc.union.Len()
	return sw
}
