package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/attr"
	"repro/internal/cserr"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/kcore"
	"repro/internal/query"
	"repro/internal/sea"
	"repro/internal/store"
	"repro/internal/truss"
)

// The correctness checks the benchmark command runs itself. A failed check
// counts as a failed op and makes the command exit non-zero.

// verifier re-derives what a /search answer claims on a graph the harness
// holds: that the community contains q, that it is a k-core (k-truss) of
// that graph, and that the reported δ is attr.Delta of its members.
type verifier struct {
	g       graph.Store
	metric  *attr.Metric
	scratch []float64 // f(·,q) filled for the members only
}

func newVerifier(g graph.Store, gamma float64) (*verifier, error) {
	m, err := attr.NewMetric(g, gamma)
	if err != nil {
		return nil, err
	}
	return &verifier{g: g, metric: m, scratch: make([]float64, g.NumNodes())}, nil
}

// delta recomputes δ for members around q. Metric.QueryDist fills entry v
// with Distance(v, q), so filling only the members' entries gives attr.Delta
// the same inputs in the same order and the result is bit-identical.
func (v *verifier) delta(members []graph.NodeID, q graph.NodeID) float64 {
	for _, u := range members {
		v.scratch[u] = v.metric.Distance(u, q)
	}
	return attr.Delta(v.scratch, members, q)
}

// check returns what is wrong with one answer ("" when nothing is).
func (v *verifier) check(req query.Request, a *answer) string {
	switch {
	case !slices.Contains(a.Community, req.Query):
		return "community does not contain q"
	case req.Model == sea.KTruss && !truss.InKTrussSet(v.g, a.Community, req.K):
		return fmt.Sprintf("community is not a %d-truss", req.K)
	case req.Model == sea.KCore && !kcore.InKCoreSet(v.g, a.Community, req.K):
		return fmt.Sprintf("community is not a %d-core", req.K)
	}
	if want := v.delta(a.Community, req.Query); want != a.Delta {
		return fmt.Sprintf("reported delta %v, recomputed %v", a.Delta, want)
	}
	return ""
}

// verifyStatic checks every kept answer of a workload whose graph never
// changes against the generated dataset, and — where set-up recorded what a
// hot request answers — that the timed run was served the same answer.
func verifyStatic(e *env, kept []checked, expected map[*op]answer) (failures []string) {
	v, err := newVerifier(e.ds.Graph, e.cfg.Gamma)
	if err != nil {
		return []string{err.Error()}
	}
	for _, c := range kept {
		if msg := v.check(c.o.reqs[0], &c.ans); msg != "" {
			failures = append(failures, fmt.Sprintf("%s: %s", c.o.body, msg))
		}
		if want, ok := expected[c.o]; ok && (want.Delta != c.ans.Delta || !slices.Equal(want.Community, c.ans.Community)) {
			failures = append(failures, fmt.Sprintf("%s: answer differs from the one set-up saw", c.o.body))
		}
	}
	return failures
}

// liveChecks is how many hot requests the live checks compare.
const liveChecks = 64

// verifyLive runs after the timed window of a journaled workload:
//
//   - no stale answer: the live catalog — caches and incrementally
//     maintained indexes as the run left them — must give hot requests
//     answers that are valid on the final graph (a k-core around q whose δ
//     matches the final attributes), and must say "no community" exactly
//     when an engine built from scratch on the final graph does. An answer
//     cached before a mutation outside its region is still a valid answer
//     but not necessarily the one a fresh sample would give, so equality is
//     not asked of the live side;
//   - acknowledged ⇒ durable: after closing the catalog, snapshot + journal
//     re-mounted in a fresh catalog must replay every acknowledged group
//     and arrive at the same graph generation;
//   - incremental ≡ scratch: the replayed engine must give those same
//     answers too.
//
// It closes s.cat. acked is the number of mutation groups the program
// acknowledged (first touch included).
func verifyLive(e *env, s *served, hot []*op, acked int) (failures []string, replayMS float64) {
	failf := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	if len(hot) > liveChecks {
		hot = hot[:liveChecks]
	}
	live := s.engine(e)
	version := live.Version()
	final := graph.CopyStore(live.Graph())
	scratch, err := engine.New(final, e.cfg)
	if err != nil {
		return []string{err.Error()}, 0
	}
	v, err := newVerifier(final, e.cfg.Gamma)
	if err != nil {
		return []string{err.Error()}, 0
	}
	ctx := context.Background()
	want := make([]*query.Outcome, len(hot))
	cl := newClient(s.handler)
	for i, o := range hot {
		out, err := scratch.Query(ctx, o.reqs[0])
		if err != nil && !errors.Is(err, cserr.ErrNoCommunity) {
			failf("%s on the scratch engine: %v", o.body, err)
			continue
		}
		want[i] = out
		status, body, _, _ := cl.c.call(o)
		var got *answer
		if cl.judge(o, status, body) {
			got = cl.decode(o, body)
		}
		if (out == nil) != (got == nil) {
			failf("%s: the live catalog and an engine built from scratch disagree on whether a community exists", o.body)
		} else if got != nil {
			if msg := v.check(o.reqs[0], got); msg != "" {
				failf("%s: the live catalog's answer is stale on the final graph: %s", o.body, msg)
			}
		}
	}
	failures = append(failures, cl.failures...)
	if err := s.cat.Close(); err != nil {
		failf("close: %v", err)
	}

	batches, err := store.TailJournal(s.journal, 0)
	if err != nil {
		return append(failures, fmt.Sprintf("journal: %v", err)), 0
	}
	groups := 0
	for _, b := range batches {
		groups += max(1, len(b.Groups))
	}
	if groups != acked {
		failf("journal holds %d groups, the program acknowledged %d", groups, acked)
	}

	t0 := time.Now()
	re := &served{snapshot: s.snapshot, journal: s.journal}
	replayed, err := e.mount(re)
	if err != nil {
		return append(failures, err.Error()), 0
	}
	replayMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	defer re.cat.Close()
	eng := re.engine(e)
	if replayed != len(batches) || eng.Version() != version {
		failf("replayed %d of %d batches to version %d, the live engine was at %d", replayed, len(batches), eng.Version(), version)
	}
	for i, o := range hot {
		out, err := eng.Query(ctx, o.reqs[0])
		if err != nil && !errors.Is(err, cserr.ErrNoCommunity) {
			failf("%s on the replayed engine: %v", o.body, err)
			continue
		}
		if (out == nil) != (want[i] == nil) || out != nil && (out.Delta != want[i].Delta || !slices.Equal(out.Community, want[i].Community)) {
			failf("%s: the replayed engine and an engine built from scratch disagree", o.body)
		}
	}
	return failures, replayMS
}
