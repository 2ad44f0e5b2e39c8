package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/query"
	"repro/internal/sea"
)

// opKind classes the operations a workload issues; latencies are kept per
// kind as well as over all of them.
type opKind uint8

const (
	opSearch opKind = iota
	opBatch
	opCompare
	opSetAttr
	opAddEdge
	opRemoveEdge
	numKinds
)

var kindNames = [numKinds]string{"search", "batch", "compare", "set_attr", "add_edge", "remove_edge"}

func (k opKind) isMutation() bool { return k >= opSetAttr }

// op is one request as the program sees it — the wire body for the handler
// — together with the same request in the form the deeper entry points take,
// which only the traced run uses.
type op struct {
	kind   opKind
	path   string
	body   []byte
	reqs   []query.Request // reads: the canonical Request(s) behind body
	deltas []mutate.Delta  // mutations: the delta group behind body
}

// opList is a workload's pre-generated input: the distinct ops, the order
// they are issued in, and the ops set-up touches once before timing so that
// the run starts from a warm cache.
type opList struct {
	ops  []*op
	seq  []int32
	warm []*op
	// cyclic lists may wrap: every op in them is a repeat by construction.
	// A list of distinct ops ends the run early instead, because a second
	// pass would hit the result cache and measure something else.
	cyclic bool
}

// at returns the i-th op to issue, or nil when a non-cyclic list is used up.
func (l *opList) at(i int64) *op {
	if i >= int64(len(l.seq)) {
		if !l.cyclic {
			return nil
		}
		i %= int64(len(l.seq))
	}
	return l.ops[l.seq[i]]
}

// prefix returns the first n ops to issue as a list of its own, which ends
// there.
func (l *opList) prefix(n int) *opList {
	return &opList{ops: l.ops, seq: l.seq[:min(n, len(l.seq))]}
}

// hash fingerprints the issue order and every body in it.
func (l *opList) hash() uint64 {
	h := fnv.New64a()
	for _, i := range l.seq {
		o := l.ops[i]
		h.Write([]byte(o.path))
		h.Write(o.body)
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// readSpec is the part of a read request the workloads vary.
type readSpec struct {
	q     graph.NodeID
	k     int
	model sea.Model
	seed  int64
}

// The accuracy parameters are the paper's defaults (§VII-A), spelled out in
// every body so that a change of the program's defaults cannot change the
// workload.
const (
	errorBound = 0.02
	confidence = 0.95
)

func (s readSpec) request(method query.Method) query.Request {
	return query.Request{
		Query: s.q, Method: method, K: s.k, Model: s.model,
		ErrorBound: errorBound, Confidence: confidence, Seed: s.seed,
	}.WithDefaults()
}

func modelName(m sea.Model) string {
	if m == sea.KTruss {
		return "truss"
	}
	return "core"
}

func searchOp(graphName string, s readSpec) *op {
	body := fmt.Sprintf(`{"graph":%q,"q":%d,"method":"sea","k":%d,"model":%q,"e":%g,"confidence":%g,"seed":%d}`,
		graphName, s.q, s.k, modelName(s.model), errorBound, confidence, s.seed)
	return &op{kind: opSearch, path: "/search", body: []byte(body), reqs: []query.Request{s.request(query.MethodSEA)}}
}

// batchOp is one /batch request: one spec over several query nodes.
func batchOp(graphName string, qs []graph.NodeID, s readSpec) *op {
	nodes, _ := json.Marshal(qs)
	body := fmt.Sprintf(`{"graph":%q,"queries":%s,"method":"sea","k":%d,"model":%q,"e":%g,"confidence":%g,"seed":%d}`,
		graphName, nodes, s.k, modelName(s.model), errorBound, confidence, s.seed)
	o := &op{kind: opBatch, path: "/batch", body: []byte(body)}
	for _, q := range qs {
		s.q = q
		o.reqs = append(o.reqs, s.request(query.MethodSEA))
	}
	return o
}

// compareOp is one /compare request: the spec replayed through SEA and the
// attribute-free structural method.
func compareOp(graphName string, s readSpec) *op {
	body := fmt.Sprintf(`{"graph":%q,"q":%d,"methods":["sea","structural"],"k":%d,"model":%q,"e":%g,"confidence":%g,"seed":%d}`,
		graphName, s.q, s.k, modelName(s.model), errorBound, confidence, s.seed)
	return &op{kind: opCompare, path: "/compare", body: []byte(body),
		reqs: []query.Request{s.request(query.MethodSEA), s.request(query.MethodStructural)}}
}

// mutateOp is one /admin/mutate request carrying a single-delta group.
func mutateOp(graphName string, kind opKind, d mutate.Delta) *op {
	deltas := []mutate.Delta{d}
	body, err := json.Marshal(struct {
		Graph  string         `json:"graph"`
		Deltas []mutate.Delta `json:"deltas"`
	}{graphName, deltas})
	if err != nil {
		panic(err) // a Delta built by this package always marshals
	}
	return &op{kind: kind, path: "/admin/mutate", body: body, deltas: deltas}
}
