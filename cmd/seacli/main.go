// Command seacli runs one community-search query against a generated
// benchmark analog or a graph file (text exchange format or packed
// snapshot). The flags serialize directly into a sea.Request, so the CLI
// speaks exactly the spec the library, the Engine and the HTTP server
// answer.
//
// Usage:
//
//	seacli -dataset facebook -q 10 -k 6 -e 0.02
//	seacli -load graph.txt -q 0 -k 4 -model truss -size 10,30 -method sea
//	seacli -load graph.snap -q 12 -method exact -max-states 200000 -timeout 5s
//	seacli pack -load graph.txt -out graph.snap
//	seacli mutate -addr http://127.0.0.1:8080 -add-edge 3,9 -set-attr "4=db,ml" -compact
//
// -method accepts every registered searcher: sea, exact, acq, locatc, vac,
// evac, structural.
//
// The pack subcommand converts a text-format graph (or a generated analog)
// into a versioned, checksummed binary snapshot carrying the full serving
// state — graph, attribute dictionary, and the precomputed admission
// indexes — so seaserve boots from it with zero parsing or recomputation.
//
// The mutate subcommand posts a live mutation batch (add/remove edges,
// append nodes, replace attributes) to a running seaserve; the server
// applies it in place with incremental index maintenance and scoped cache
// invalidation, journals it when mounted with -journal, and -compact folds
// the journal into a fresh snapshot.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	sealib "repro"
)

// cliFlags is the flag set of one invocation, kept as a struct so tests can
// exercise the flags → Request serialization without running a search.
type cliFlags struct {
	dsName  string
	scale   float64
	load    string
	q       int
	k       int
	e       float64
	conf    float64
	gamma   float64
	model   string
	size    string
	method  string
	seed    int64
	states  int64
	timeout time.Duration
	show    int
}

func parseFlags(fs *flag.FlagSet, args []string) (*cliFlags, error) {
	f := &cliFlags{}
	fs.StringVar(&f.dsName, "dataset", "facebook", "generated dataset analog name")
	fs.Float64Var(&f.scale, "scale", 0.5, "dataset scale factor")
	fs.StringVar(&f.load, "load", "", "load a graph file instead of generating")
	fs.IntVar(&f.q, "q", -1, "query node ID (-1 picks one from a planted community)")
	fs.IntVar(&f.k, "k", 6, "structural parameter k")
	fs.Float64Var(&f.e, "e", 0.02, "error bound e")
	fs.Float64Var(&f.conf, "confidence", 0.95, "confidence level 1-alpha")
	fs.Float64Var(&f.gamma, "gamma", 0.5, "attribute balance factor")
	fs.StringVar(&f.model, "model", "core", "community model: core or truss")
	fs.StringVar(&f.size, "size", "", "size bound lo,hi (empty = unbounded)")
	fs.StringVar(&f.method, "method", "sea", "search method: "+strings.Join(methodNames(), ", "))
	fs.Int64Var(&f.seed, "seed", 1, "random seed")
	fs.Int64Var(&f.states, "max-states", 200000, "state budget for exact/evac (0 = unlimited)")
	fs.DurationVar(&f.timeout, "timeout", 0, "cancel the search after this long (0 = none)")
	fs.IntVar(&f.show, "show", 20, "max community members to print")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return f, nil
}

func methodNames() []string {
	ms := sealib.Methods()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.String()
	}
	return names
}

// buildRequest serializes the flags into the unified Request. The query
// node is filled in by the caller once the graph is known (the -q flag may
// delegate the choice to the dataset's planted communities).
func (f *cliFlags) buildRequest(q sealib.NodeID) (sealib.Request, error) {
	req := sealib.DefaultRequest(q)
	req.K = f.k
	req.ErrorBound = f.e
	req.Confidence = f.conf
	req.Seed = f.seed
	req.MaxStates = f.states
	method, err := sealib.ParseMethod(f.method)
	if err != nil {
		return req, err
	}
	req.Method = method
	if err := req.Model.UnmarshalText([]byte(f.model)); err != nil {
		return req, fmt.Errorf("bad -model %q: %w", f.model, err)
	}
	if f.size != "" {
		if req.SizeLo, req.SizeHi, err = parseSize(f.size); err != nil {
			return req, err
		}
	}
	return req, req.Validate()
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "pack" {
		if err := runPack(os.Args[2:]); err != nil {
			fail(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "mutate" {
		if err := runMutate(os.Args[2:], os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	f, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fail(err)
	}
	g, query, err := loadOrGenerate(f.load, f.dsName, f.scale, f.q, f.k, f.seed)
	if err != nil {
		fail(err)
	}
	req, err := f.buildRequest(query)
	if err != nil {
		fail(err)
	}
	m, err := sealib.NewMetric(g, f.gamma)
	if err != nil {
		fail(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; query node %d, k=%d, method=%s\n",
		g.NumNodes(), g.NumEdges(), query, req.K, req.Method)

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	out, err := sealib.ExecuteWithMetric(ctx, g, m, req)
	switch {
	case err == nil:
	case errors.Is(err, sealib.ErrBudgetExhausted):
		fmt.Println("note: state budget exhausted; best community found so far")
	case errors.Is(err, context.DeadlineExceeded) && out != nil:
		fmt.Println("note: timeout hit; best community found so far")
	default:
		fail(err)
	}

	fmt.Printf("δ = %.4f\n", out.Delta)
	if res := out.SEA; res != nil {
		fmt.Printf("CI = %v, satisfied = %v, rounds = %d\n", res.CI, res.Satisfied, len(res.Rounds))
		fmt.Printf("steps: S1 %v, S2 %v, S3 %v; |Gq| = %d, |S| = %d\n",
			res.Steps.Sampling, res.Steps.Estimation, res.Steps.Incremental,
			res.GqSize, res.SampleSize)
	}
	if out.States > 0 {
		fmt.Printf("states explored = %d\n", out.States)
	}

	members := append([]sealib.NodeID(nil), out.Community...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	fmt.Printf("community (%d nodes):\n", len(members))
	for i, v := range members {
		if i >= f.show {
			fmt.Printf("  … and %d more\n", len(members)-i)
			break
		}
		fmt.Printf("  %6d  text=%s  num=%v  f(v,q)=%.4f\n",
			v, textOf(g, v), g.NumAttrs(v), m.Distance(v, query))
	}
}

func loadOrGenerate(load, dsName string, scale float64, q, k int, seed int64) (*sealib.Graph, sealib.NodeID, error) {
	if load != "" {
		g, err := loadGraphFile(load)
		if err != nil {
			return nil, 0, err
		}
		if q < 0 {
			return nil, 0, fmt.Errorf("-q is required with -load")
		}
		return g, sealib.NodeID(q), nil
	}
	d, err := sealib.GenerateDataset(dsName, scale)
	if err != nil {
		return nil, 0, err
	}
	if q >= 0 {
		return d.Graph, sealib.NodeID(q), nil
	}
	return d.Graph, d.QueryNodes(1, k, seed)[0], nil
}

func textOf(g *sealib.Graph, v sealib.NodeID) string {
	toks := g.TextAttrs(v)
	if len(toks) == 0 {
		return "-"
	}
	names := make([]string, len(toks))
	for i, t := range toks {
		names[i] = g.Dict().Name(t)
	}
	return strings.Join(names, ",")
}

// loadGraphFile opens a graph file in either on-disk form (snapshot or
// text), discarding any packed index — the one-shot query path rebuilds
// only what it needs. Snapshot files print their format description.
func loadGraphFile(path string) (*sealib.Graph, error) {
	info, err := sealib.DetectSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	if info.IsSnapshot() {
		fmt.Printf("%s: %s\n", path, info)
	}
	snap, err := sealib.OpenGraphFile(path)
	if err != nil {
		return nil, err
	}
	return snap.Graph, nil
}

// runPack is the pack subcommand: text format (or generated analog) →
// snapshot with the full precomputed index. The snapshot is gamma-agnostic
// (the packed normalizer table does not depend on the balance factor);
// gamma is chosen at serving time (seaserve -gamma, or the manifest's
// per-dataset gamma).
func runPack(args []string) error {
	fs := flag.NewFlagSet("seacli pack", flag.ExitOnError)
	var (
		load   = fs.String("load", "", "input graph file (text exchange format, or a snapshot of any version to repack)")
		dsName = fs.String("dataset", "", "generate this dataset analog instead of reading -load")
		scale  = fs.Float64("scale", 0.5, "dataset scale factor (with -dataset)")
		out    = fs.String("out", "", "output snapshot path (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("pack: -out is required")
	}
	t0 := time.Now()
	var (
		size int64
		g    *sealib.Graph
	)
	switch {
	case *load != "":
		if info, err := sealib.DetectSnapshotFile(*load); err == nil && info.IsSnapshot() {
			fmt.Printf("%s: %s\n", *load, info)
		}
		snap, err := sealib.OpenGraphFile(*load)
		if err != nil {
			return err
		}
		g = snap.Graph
		if snap.Index != nil {
			// Repacking a snapshot reuses its index instead of rebuilding.
			eng, err := sealib.NewEngineFromSnapshot(snap, sealib.DefaultEngineConfig())
			if err != nil {
				return err
			}
			if size, err = eng.WriteSnapshotFile(*out); err != nil {
				return err
			}
			break
		}
		if size, err = sealib.PackSnapshotFileOpts(g, *out, sealib.PackOptions{}); err != nil {
			return err
		}
	case *dsName != "":
		d, err := sealib.GenerateDataset(*dsName, *scale)
		if err != nil {
			return err
		}
		g = d.Graph
		if size, err = sealib.PackSnapshotFileOpts(g, *out, sealib.PackOptions{}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pack: need -load or -dataset")
	}
	info, err := sealib.DetectSnapshotFile(*out)
	if err != nil {
		return err
	}
	fmt.Printf("packed %s: %d nodes, %d edges, %d bytes, %s (indexes ready in %v)\n",
		*out, g.NumNodes(), g.NumEdges(), size, info, time.Since(t0).Round(time.Millisecond))
	return nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// parseEdge parses "u,v" into node IDs, rejecting any trailing garbage
// (fmt.Sscanf would silently accept "1,2junk" — a typo must not mutate a
// live server).
func parseEdge(spec string) (u, v sealib.NodeID, err error) {
	us, vs, ok := strings.Cut(spec, ",")
	if !ok {
		return 0, 0, fmt.Errorf("bad edge %q (want u,v)", spec)
	}
	a, err := strconv.ParseInt(strings.TrimSpace(us), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad edge %q: %v", spec, err)
	}
	b, err := strconv.ParseInt(strings.TrimSpace(vs), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad edge %q: %v", spec, err)
	}
	return sealib.NodeID(a), sealib.NodeID(b), nil
}

// parseSize parses "lo,hi" the way parseEdge parses "u,v": two integers,
// spaces trimmed, nothing else.
func parseSize(spec string) (lo, hi int, err error) {
	los, his, ok := strings.Cut(spec, ",")
	if !ok {
		return 0, 0, fmt.Errorf("bad -size %q (want lo,hi)", spec)
	}
	if lo, err = strconv.Atoi(strings.TrimSpace(los)); err == nil {
		hi, err = strconv.Atoi(strings.TrimSpace(his))
	}
	if err != nil {
		return 0, 0, fmt.Errorf("bad -size %q: %v", spec, err)
	}
	return lo, hi, nil
}

// parseAttrs parses "tok1,tok2:0.1,0.2" — textual tokens before the colon,
// numerical values after; either side may be empty.
func parseAttrs(spec string) (text []string, num []float64, err error) {
	ts, ns, _ := strings.Cut(spec, ":")
	if ts != "" {
		text = strings.Split(ts, ",")
	}
	if ns != "" {
		for _, f := range strings.Split(ns, ",") {
			x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad numerical attribute %q: %v", f, err)
			}
			num = append(num, x)
		}
	}
	return text, num, nil
}

// buildDeltas serializes the mutate flags into one batch: added nodes
// first (so freshly assigned IDs can appear in the edge flags), then added
// edges, removed edges, and attribute updates.
func buildDeltas(addNode, addEdge, removeEdge, setAttr []string) ([]sealib.Mutation, error) {
	var deltas []sealib.Mutation
	for _, spec := range addNode {
		text, num, err := parseAttrs(spec)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, sealib.AddNodeDelta(text, num))
	}
	for _, spec := range addEdge {
		u, v, err := parseEdge(spec)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, sealib.AddEdgeDelta(u, v))
	}
	for _, spec := range removeEdge {
		u, v, err := parseEdge(spec)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, sealib.RemoveEdgeDelta(u, v))
	}
	for _, spec := range setAttr {
		node, attrs, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -set-attr %q (want node=attrs)", spec)
		}
		id, err := strconv.ParseInt(strings.TrimSpace(node), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad -set-attr node %q: %v", node, err)
		}
		text, num, err := parseAttrs(attrs)
		if err != nil {
			return nil, err
		}
		deltas = append(deltas, sealib.SetAttrDelta(sealib.NodeID(id), text, num))
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("mutate: no deltas (use -add-edge/-remove-edge/-add-node/-set-attr)")
	}
	return deltas, nil
}

// runMutate is the mutate subcommand: serialize the delta flags into one
// POST /admin/mutate batch against a running seaserve, optionally following
// up with POST /admin/compact. The batch applies live — incremental index
// maintenance and scoped cache invalidation, no reload.
func runMutate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("seacli mutate", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "http://127.0.0.1:8080", "seaserve base URL")
		graphName  = fs.String("graph", "", "dataset to mutate (empty = server default)")
		compact    = fs.Bool("compact", false, "fold the journal into a snapshot after mutating")
		addEdge    multiFlag
		removeEdge multiFlag
		addNode    multiFlag
		setAttr    multiFlag
	)
	fs.Var(&addEdge, "add-edge", "insert edge \"u,v\" (repeatable)")
	fs.Var(&removeEdge, "remove-edge", "delete edge \"u,v\" (repeatable)")
	fs.Var(&addNode, "add-node", "append a node \"tok1,tok2:0.1,0.2\" (repeatable; either side optional)")
	fs.Var(&setAttr, "set-attr", "replace attributes \"node=tok1,tok2:0.1,0.2\" (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	deltas, err := buildDeltas(addNode, addEdge, removeEdge, setAttr)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"graph": *graphName, "deltas": deltas})
	if err != nil {
		return err
	}
	resp, err := postJSON(*addr+"/admin/mutate", body)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mutate: %s\n", resp)
	if *compact {
		body, _ := json.Marshal(map[string]any{"graph": *graphName})
		resp, err := postJSON(*addr+"/admin/compact", body)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "compact: %s\n", resp)
	}
	return nil
}

// postJSON posts body and returns the response body, folding non-2xx
// statuses into the error.
func postJSON(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	return bytes.TrimSpace(data), nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seacli:", err)
	os.Exit(1)
}
