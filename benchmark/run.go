package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// clients is the number of closed-loop callers: one per core of the box
// this benchmark was sized on. Callers of a query service wait for their
// reply before they ask again, so a closed loop is the honest model.
const clients = 2

// answer is what the checks read from one /search response or one item of a
// /batch or /compare response.
type answer struct {
	Query     int64          `json:"query"`
	Method    string         `json:"method"`
	Community []graph.NodeID `json:"community"`
	Delta     float64        `json:"delta"`
	Satisfied bool           `json:"satisfied"`
	Metrics   struct {
		ResultHit bool `json:"result_hit"`
	} `json:"metrics"`
	Err string `json:"err"`
}

// items is the body of a /batch or /compare response.
type items struct {
	Items []answer `json:"items"`
}

// mutateAnswer is what the checks read from one /admin/mutate response:
// the per-delta verdicts for the caller's own group (the other counts in the
// body are those of the whole flush, which may have carried a second group)
// and the sequence number of the journal record that made it durable.
type mutateAnswer struct {
	Outcomes []struct {
		Applied bool `json:"applied"`
	} `json:"outcomes"`
	Journaled uint64 `json:"journaled"`
}

// acknowledged reports whether every one of n deltas was applied and the
// group journaled.
func (m *mutateAnswer) acknowledged(n int) bool {
	if len(m.Outcomes) != n || m.Journaled == 0 {
		return false
	}
	for _, o := range m.Outcomes {
		if !o.Applied {
			return false
		}
	}
	return true
}

// checked is one decoded /search answer kept for the checks that run after
// the clock has stopped.
type checked struct {
	o   *op
	ans answer
}

// keepAnswers bounds the answers a client keeps for the post-run checks.
const keepAnswers = 2048

// tally is what one client counts during a window and what the run sums
// over its clients.
type tally struct {
	all       *recorder
	byKind    [numKinds]*recorder
	attempted int
	failed    int
	notFound  int
	reads     int
	respBytes int64
	deltaSum  float64
	deltaN    int
	satisfied int
	early     int // ops completed in the first third of the window
	late      int // ops completed in the last third
	acked     int // mutation groups the program acknowledged
	answers   []checked
	failures  []string
	tr        *clientTrace // nil outside a traced window
}

func newTally() tally {
	t := tally{all: newRecorder()}
	for k := range t.byKind {
		t.byKind[k] = newRecorder()
	}
	return t
}

func (t *tally) merge(o *tally) {
	t.all.merge(o.all)
	for k := range t.byKind {
		t.byKind[k].merge(o.byKind[k])
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.notFound += o.notFound
	t.reads += o.reads
	t.respBytes += o.respBytes
	t.deltaSum += o.deltaSum
	t.deltaN += o.deltaN
	t.satisfied += o.satisfied
	t.early += o.early
	t.late += o.late
	t.acked += o.acked
	t.answers = append(t.answers, o.answers...)
	t.failures = append(t.failures, o.failures...)
	if o.tr != nil {
		if t.tr == nil {
			t.tr = newClientTrace()
		}
		t.tr.merge(o.tr)
	}
}

// client is one closed-loop caller. Clients share nothing but the op cursor;
// the run merges their tallies when they have stopped.
type client struct {
	tally
	c       *caller
	lastEnd time.Time
}

func newClient(h http.Handler) *client { return &client{tally: newTally(), c: newCaller(h)} }

// fail counts one failed op and keeps the first few descriptions.
func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if len(cl.failures) < 5 {
		cl.failures = append(cl.failures, fmt.Sprintf(format, args...))
	}
}

// judge counts one completed op by its status: 2xx is an answer, 404 on a
// read is the answer "no community", everything else — 5xx, 429, 4xx — is a
// failure. It reports whether the body is worth decoding.
func (cl *client) judge(o *op, status int, body []byte) bool {
	cl.attempted++
	cl.respBytes += int64(len(body))
	if !o.kind.isMutation() {
		cl.reads++
	}
	switch {
	case status == http.StatusOK:
		return true
	case status == http.StatusNotFound && !o.kind.isMutation():
		cl.notFound++
	default:
		cl.fail("%s %s: status %d: %.200s", o.path, o.body, status, body)
	}
	return false
}

// decode parses a 2xx body, applies the checks that need nothing but the
// response, and returns the /search answer (nil for other kinds or on
// failure).
func (cl *client) decode(o *op, body []byte) *answer {
	switch {
	case o.kind == opSearch:
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			cl.fail("%s: undecodable body: %v", o.path, err)
			return nil
		}
		if a.Err != "" || a.Query != int64(o.reqs[0].Query) {
			cl.fail("%s %s: answered query %d, err %q", o.path, o.body, a.Query, a.Err)
			return nil
		}
		cl.deltaSum += a.Delta
		cl.deltaN++
		if a.Satisfied {
			cl.satisfied++
		}
		return &a
	case o.kind.isMutation():
		var m mutateAnswer
		if err := json.Unmarshal(body, &m); err != nil {
			cl.fail("%s: undecodable body: %v", o.path, err)
		} else if !m.acknowledged(len(o.deltas)) {
			cl.fail("%s %s: not acknowledged: %.200s", o.path, o.body, body)
		} else {
			cl.acked++
		}
	default:
		var it items
		if err := json.Unmarshal(body, &it); err != nil {
			cl.fail("%s: undecodable body: %v", o.path, err)
		} else if len(it.Items) != len(o.reqs) {
			cl.fail("%s %s: %d items for %d requests", o.path, o.body, len(it.Items), len(o.reqs))
		} else {
			for i, a := range it.Items {
				if a.Err != "" || a.Query != int64(o.reqs[i].Query) || a.Method != o.reqs[i].Method.String() {
					cl.fail("%s %s: item %d answered query %d by %q, err %q", o.path, o.body, i, a.Query, a.Method, a.Err)
				}
			}
		}
	}
	return nil
}

// runStats is the merged outcome of one timed window.
type runStats struct {
	tally
	elapsed   float64 // seconds from the first op's start to the last op's end
	drift     float64 // (last third − first third) of the completions, over their mean; printed, not reported
	exhausted bool    // a non-cyclic op list ran out before the deadline
}

// timed runs the closed loop for the given time: clients take the next op
// from a shared cursor until the deadline has passed. decodeEvery decides
// which responses are decoded and checked. A tracer, when given, re-runs
// every op one layer down after its handler call has been timed.
func timed(h http.Handler, list *opList, start int64, d time.Duration, decodeEvery int64, tr *tracer) (*runStats, int64) {
	var cursor atomic.Int64
	cursor.Store(start)
	var exhausted atomic.Bool
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(h)
	}
	t0 := time.Now()
	deadline := t0.Add(d)
	if tr != nil {
		tr.t0 = t0
	}
	var wg sync.WaitGroup
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			// Two clock reads per op, both inside call: the end of one op is
			// the time the next is taken at.
			for cl.lastEnd = t0; cl.lastEnd.Before(deadline); {
				i := cursor.Add(1) - 1
				o := list.at(i)
				if o == nil {
					exhausted.Store(true)
					return
				}
				status, body, start, took := cl.c.call(o)
				end := start.Add(took)
				cl.all.add(took.Nanoseconds())
				cl.byKind[o.kind].add(took.Nanoseconds())
				switch at := end.Sub(t0); {
				case at < d/3:
					cl.early++
				case at >= 2*d/3 && at < d:
					cl.late++
				}
				var ans *answer
				if cl.judge(o, status, body) && (tr != nil || i%decodeEvery == 0) {
					if ans = cl.decode(o, body); ans != nil && len(cl.answers) < keepAnswers {
						cl.answers = append(cl.answers, checked{o, *ans})
					}
				}
				cl.lastEnd = end
				if tr != nil {
					tr.descend(cl, i, o, status, ans, start.Sub(t0), took)
					cl.lastEnd = time.Now()
				}
			}
		}(cl)
	}
	wg.Wait()

	st := &runStats{tally: newTally(), exhausted: exhausted.Load()}
	last := t0
	for _, cl := range cls {
		st.merge(&cl.tally)
		if cl.lastEnd.After(last) {
			last = cl.lastEnd
		}
	}
	st.elapsed = last.Sub(t0).Seconds()
	if st.early+st.late > 0 {
		st.drift = float64(st.late-st.early) / (float64(st.early+st.late) / 2)
	}
	return st, cursor.Load()
}

// warmUp issues every op once from the closed-loop clients, outside any
// timed window, and returns the time it took and the /search answers by op.
func warmUp(h http.Handler, ops []*op) (seconds float64, answers map[*op]answer, failures []string) {
	list := &opList{ops: ops}
	for i := range ops {
		list.seq = append(list.seq, int32(i))
	}
	st, _ := timed(h, list, 0, time.Hour, 1, nil)
	answers = make(map[*op]answer, len(st.answers))
	for _, c := range st.answers {
		answers[c.o] = c.ans
	}
	return st.elapsed, answers, st.failures
}
