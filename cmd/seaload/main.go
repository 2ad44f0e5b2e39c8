// Command seaload is the SLO harness: an open-loop load generator that
// drives a running seaserve (or searouter) at a fixed request rate and
// reports client-side latency percentiles that include queueing delay.
//
// Open-loop means every request fires at its scheduled instant whether or
// not earlier ones have returned, and latency is measured from that
// scheduled instant — so a server that stalls accumulates queueing delay in
// the percentiles instead of silently slowing the generator down
// (coordinated omission). A closed-loop generator (fire, wait, fire) can
// report a healthy p99 from a server that is drowning; this one cannot.
//
// Scenarios are weighted operation mixes over zipf-distributed query nodes
// (hot nodes get most of the traffic, like real workloads):
//
//	read-heavy    80% /search, 15% /batch, 5% /compare
//	mixed         55% /search, 20% /batch, 10% /compare, 15% /admin/mutate
//	write-heavy   30% /search, 10% /batch, 60% /admin/mutate
//
// Mutations are set_attr deltas on zipf nodes: always valid (unlike random
// edge inserts, which collide), durable when the target journals, and they
// exercise the scoped-invalidation write path the read mix then observes.
//
// Usage:
//
//	seaload -url http://localhost:8080 -scenario read-heavy -qps 200 -duration 10s
//	seaload -selfserve -scenario mixed -qps 500 -out BENCH_8.json
//	seaload -selfserve -selfserve-journal -writers 32 -duration 5s
//
// -writers N switches to a closed-loop mutation mode: N concurrent writers
// fire /admin/mutate back-to-back, measuring the write path's sustained
// commit throughput under group commit (-direct calls Catalog.Mutate in
// process, leaving the HTTP stack out).
//
// -selfserve boots an in-process server on a loopback port (generated
// dataset, full catalog HTTP surface) and drives it over real HTTP — the
// reproducible no-setup mode `make bench-json` uses.
//
// -out appends one machine-readable record per run, seabench-compatible:
//
//	{"experiment": "seaload/<scenario>",
//	 "wall_seconds": <measured window>,
//	 "result": {"scenario":..., "url":..., "graph":...,
//	            "qps_target":..., "qps_achieved":...,
//	            "requests":..., "errors":...,
//	            "p50_us":..., "p90_us":..., "p99_us":..., "p999_us":...,
//	            "mean_us":..., "max_us":...,
//	            "ops": {"search": {"count":..., "errors":..., "p99_us":...}, ...}}}
//
// Records land in a JSON array; re-running a scenario replaces its record
// in place, so one BENCH_<pr>.json accumulates every scenario of a PR.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	sealib "repro"
	"repro/internal/obs"
)

// opWeight is one operation's share of a scenario mix, in percent.
type opWeight struct {
	op     string
	weight int
}

var scenarios = map[string][]opWeight{
	"read-heavy":  {{"search", 80}, {"batch", 15}, {"compare", 5}},
	"mixed":       {{"search", 55}, {"batch", 20}, {"compare", 10}, {"mutate", 15}},
	"write-heavy": {{"search", 30}, {"batch", 10}, {"mutate", 60}},
}

func main() {
	var (
		url         = flag.String("url", "", "target base URL (seaserve or searouter)")
		selfserve   = flag.Bool("selfserve", false, "boot an in-process server on a loopback port and drive that")
		dsName      = flag.String("dataset", "facebook", "generated dataset for -selfserve")
		scale       = flag.Float64("scale", 0.5, "dataset scale for -selfserve")
		graphName   = flag.String("graph", "", "dataset name in requests (default: the target's default dataset)")
		scenario    = flag.String("scenario", "read-heavy", "operation mix: read-heavy, mixed or write-heavy")
		qps         = flag.Float64("qps", 200, "target request rate (open loop: fires on schedule regardless of responses)")
		duration    = flag.Duration("duration", 10*time.Second, "measured window")
		warmup      = flag.Duration("warmup", time.Second, "requests fired but not measured before the window")
		k           = flag.Int("k", 6, "structural parameter k")
		zipfS       = flag.Float64("zipf", 1.3, "zipf skew for query-node choice (>1; higher = hotter hot set)")
		batchSize   = flag.Int("batch-size", 8, "queries per /batch request")
		timeout     = flag.Duration("timeout", 2*time.Second, "per-request client timeout")
		seed        = flag.Int64("seed", 42, "random seed for node choice and op mix")
		outFile     = flag.String("out", "", "merge the run's record into this JSON array (convention: BENCH_<pr>.json)")
		writers     = flag.Int("writers", 0, "closed-loop mutation mode: this many concurrent writers fire /admin/mutate back-to-back for -duration instead of the open-loop mix")
		direct      = flag.Bool("direct", false, "with -selfserve -writers: call Catalog.Mutate in process instead of over HTTP, measuring the commit pipeline itself rather than the HTTP stack")
		journalSelf = flag.Bool("selfserve-journal", false, "journal the -selfserve mount into a temp dir, so mutations measure durable commits (fsync included)")
		maxErrRate  = flag.Float64("max-error-rate", 0,
			"tolerated error fraction (0..1) before exiting nonzero; 0 means any error fails (chaos runs pass e.g. 0.1)")
	)
	flag.Parse()

	mix, ok := scenarios[*scenario]
	if !ok {
		fail(fmt.Errorf("unknown scenario %q (want read-heavy, mixed or write-heavy)", *scenario))
	}
	if *qps <= 0 {
		fail(errors.New("-qps must be positive"))
	}
	if !(*zipfS > 1) { // rand.NewZipf returns nil for s ≤ 1
		fail(fmt.Errorf("-zipf must be greater than 1, got %g", *zipfS))
	}
	if *url == "" && !*selfserve {
		fail(errors.New("need -url or -selfserve"))
	}

	var selfCat *sealib.Catalog
	if *selfserve {
		target, cat, shutdown, err := bootSelfServe(*dsName, *scale, *journalSelf)
		if err != nil {
			fail(err)
		}
		defer shutdown()
		*url = target
		selfCat = cat
		if *graphName == "" {
			*graphName = *dsName
		}
	}
	if *direct && (selfCat == nil || *writers <= 0) {
		fail(errors.New("-direct needs -selfserve and -writers"))
	}

	nodes, graph, err := discover(*url, *graphName, *timeout)
	if err != nil {
		fail(err)
	}
	if *writers > 0 {
		fmt.Printf("seaload: %d closed-loop writers against %s (graph %q, %d nodes) for %v after %v warmup\n",
			*writers, *url, graph, nodes, *duration, *warmup)
	} else {
		fmt.Printf("seaload: %s scenario against %s (graph %q, %d nodes): %g qps for %v after %v warmup\n",
			*scenario, *url, graph, nodes, *qps, *duration, *warmup)
	}

	cfg := runConfig{
		url: *url, graph: graph, nodes: nodes,
		mix: mix, qps: *qps, duration: *duration, warmup: *warmup,
		k: *k, zipfS: *zipfS, batchSize: *batchSize,
		timeout: *timeout, seed: *seed,
	}
	experiment := "seaload/" + *scenario
	var res loadResult
	if *writers > 0 {
		if *direct {
			cfg.directCat = selfCat
		}
		res = runWriters(cfg, *writers)
		res.Scenario = fmt.Sprintf("writers-%d", *writers)
		if *direct {
			res.Scenario += "-direct"
		}
		experiment = "seaload/" + res.Scenario
	} else {
		res = run(cfg)
		res.Scenario = *scenario
	}

	fmt.Printf("seaload: %d requests (%d errors), %.1f qps achieved of %g target\n",
		res.Requests, res.Errors, res.QPSAchieved, res.QPSTarget)
	fmt.Printf("seaload: p50 %.0fµs  p90 %.0fµs  p99 %.0fµs  p99.9 %.0fµs  max %.0fµs\n",
		res.P50US, res.P90US, res.P99US, res.P999US, res.MaxUS)
	for _, w := range mix {
		if s, ok := res.Ops[w.op]; ok {
			fmt.Printf("seaload:   %-8s %7d requests, %d errors, p99 %.0fµs\n", w.op, s.Count, s.Errors, s.P99US)
		}
	}
	if len(res.ErrorClasses) > 0 {
		fmt.Printf("seaload: error classes:")
		for _, class := range errorClassOrder {
			if n := res.ErrorClasses[class]; n > 0 {
				fmt.Printf("  %s=%d", class, n)
			}
		}
		fmt.Println()
	}

	if *outFile != "" {
		if err := mergeRecord(*outFile, loadRecord{
			Experiment:  experiment,
			WallSeconds: res.wall.Seconds(),
			Result:      res,
		}); err != nil {
			fail(err)
		}
		fmt.Printf("seaload: merged record %q into %s\n", experiment, *outFile)
	}
	// A perfectly clean run always passes; otherwise the error *rate* decides,
	// so chaos runs can assert "reads kept flowing with a bounded error rate"
	// instead of demanding zero failures while faults are armed.
	if res.Errors > 0 {
		rate := float64(res.Errors) / float64(res.Requests)
		if rate > *maxErrRate {
			fmt.Printf("seaload: error rate %.3f exceeds -max-error-rate %.3f\n", rate, *maxErrRate)
			os.Exit(1)
		}
		fmt.Printf("seaload: error rate %.3f within -max-error-rate %.3f\n", rate, *maxErrRate)
	}
}

// bootSelfServe mounts a generated dataset behind the full catalog HTTP
// surface on a loopback port and returns its base URL. With journal set the
// dataset mounts write-ahead journaled into a temp dir (removed at
// shutdown), so mutations pay the real durability cost — the write path
// the write-heavy and -writers rows measure.
func bootSelfServe(name string, scale float64, journal bool) (string, *sealib.Catalog, func(), error) {
	d, err := sealib.GenerateDataset(name, scale)
	if err != nil {
		return "", nil, nil, err
	}
	cfg := sealib.DefaultEngineConfig()
	eng, err := sealib.NewEngine(d.Graph, cfg)
	if err != nil {
		return "", nil, nil, err
	}
	cat := sealib.NewCatalog()
	cleanup := func() {}
	if journal {
		dir, err := os.MkdirTemp("", "seaload-journal-*")
		if err != nil {
			return "", nil, nil, err
		}
		cleanup = func() { os.RemoveAll(dir) }
		snap := filepath.Join(dir, name+".snap")
		if _, err := eng.WriteSnapshotFile(snap, sealib.PackOptions{}); err != nil {
			cleanup()
			return "", nil, nil, err
		}
		if _, _, err := cat.MountPathJournaled(name, snap, filepath.Join(dir, name+".journal"), cfg); err != nil {
			cleanup()
			return "", nil, nil, err
		}
	} else if _, err := cat.Mount(name, eng, cfg, fmt.Sprintf("generated %s@%g", name, scale)); err != nil {
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: sealib.NewCatalogHTTPHandler(cat, cfg)}
	go srv.Serve(ln)
	shutdown := func() {
		srv.Close()
		cat.Close()
		cleanup()
	}
	return "http://" + ln.Addr().String(), cat, shutdown, nil
}

// discover asks the target's /graphs for the dataset to drive: its node
// count bounds the zipf draw, and an empty -graph resolves to the target's
// default dataset.
func discover(url, graph string, timeout time.Duration) (nodes int, name string, err error) {
	hc := &http.Client{Timeout: timeout}
	resp, err := hc.Get(url + "/graphs")
	if err != nil {
		return 0, "", fmt.Errorf("discovering datasets: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("discovering datasets: %s returned %s", url+"/graphs", resp.Status)
	}
	var body struct {
		Default string `json:"default"`
		Graphs  []struct {
			Name  string `json:"name"`
			Nodes int    `json:"nodes"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, "", fmt.Errorf("decoding /graphs: %w", err)
	}
	if graph == "" {
		graph = body.Default
	}
	for _, g := range body.Graphs {
		if g.Name == graph || (graph == "" && len(body.Graphs) == 1) {
			if g.Nodes < 2 {
				return 0, "", fmt.Errorf("dataset %q has %d nodes; need at least 2", g.Name, g.Nodes)
			}
			return g.Nodes, g.Name, nil
		}
	}
	return 0, "", fmt.Errorf("target serves no dataset %q", graph)
}

type runConfig struct {
	url, graph string
	nodes      int
	mix        []opWeight
	qps        float64
	duration   time.Duration
	warmup     time.Duration
	k          int
	zipfS      float64
	batchSize  int
	timeout    time.Duration
	seed       int64
	// directCat short-circuits runWriters past HTTP: mutations call
	// Catalog.Mutate in process (the -direct mode).
	directCat *sealib.Catalog
}

// opStats is one operation's slice of the run.
type opStats struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P99US  float64 `json:"p99_us"`
}

// loadResult is the machine-readable outcome of one run — the "result"
// field of the committed record.
type loadResult struct {
	Scenario    string             `json:"scenario"`
	URL         string             `json:"url"`
	Graph       string             `json:"graph"`
	QPSTarget   float64            `json:"qps_target"`
	QPSAchieved float64            `json:"qps_achieved"`
	Requests    uint64             `json:"requests"`
	Errors      uint64             `json:"errors"`
	P50US       float64            `json:"p50_us"`
	P90US       float64            `json:"p90_us"`
	P99US       float64            `json:"p99_us"`
	P999US      float64            `json:"p999_us"`
	MeanUS      float64            `json:"mean_us"`
	MaxUS       float64            `json:"max_us"`
	Writers     int                `json:"writers,omitempty"`
	Ops         map[string]opStats `json:"ops"`
	// ErrorClasses breaks Errors down by what the client actually saw:
	// "refused" (connection refused — nothing listening), "timeout" (client
	// deadline), "conn" (other transport errors: resets, severed bodies),
	// "shed_429" (server-side overload shedding), "http_5xx" and "http_4xx".
	ErrorClasses map[string]uint64 `json:"error_classes,omitempty"`

	wall time.Duration
}

// loadRecord matches seabench's benchRecord field for field, so seaload and
// seabench runs share one BENCH_<pr>.json — mergeRecord re-marshals every
// record it keeps, and a narrower struct would silently strip seabench's
// fields from the file.
type loadRecord struct {
	Experiment  string   `json:"experiment"`
	WallSeconds float64  `json:"wall_seconds"`
	MeanDelta   *float64 `json:"mean_delta,omitempty"`
	Result      any      `json:"result,omitempty"`
}

// perOp aggregates one operation's latency during a run.
type perOp struct {
	hist   obs.Histogram
	errors obs.Histogram // error latencies, kept separate from the percentiles
}

// run fires the mix at cfg.qps from a fixed schedule. Request i's send time
// is start + i·interval whatever the server is doing; its latency is
// measured from that scheduled instant, so response-time stalls surface as
// queueing delay instead of quietly stretching the schedule.
func run(cfg runConfig) loadResult {
	interval := time.Duration(float64(time.Second) / cfg.qps)
	hc := &http.Client{
		Timeout: cfg.timeout,
		// The open loop can hold many requests in flight against one host;
		// the default 2 idle conns per host would throttle it at the client.
		Transport: &http.Transport{MaxIdleConnsPerHost: 256},
	}

	// The draw (op + query node) is precomputed per tick under one rand so
	// runs are reproducible; the firing goroutines then touch only atomics.
	rng := rand.New(rand.NewSource(cfg.seed))
	zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.nodes-1))
	var drawMu sync.Mutex
	draw := func() (string, []int) {
		drawMu.Lock()
		defer drawMu.Unlock()
		roll, acc := rng.Intn(100), 0
		op := cfg.mix[len(cfg.mix)-1].op
		for _, w := range cfg.mix {
			if acc += w.weight; roll < acc {
				op = w.op
				break
			}
		}
		n := 1
		if op == "batch" {
			n = cfg.batchSize
		}
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = int(zipf.Uint64())
		}
		return op, nodes
	}

	var (
		total   obs.Histogram
		ops     = make(map[string]*perOp, len(cfg.mix))
		wg      sync.WaitGroup
		mutSeq  int
		mutMu   sync.Mutex
		classMu sync.Mutex
		classes = make(map[string]uint64, len(errorClassOrder))
	)
	for _, w := range cfg.mix {
		ops[w.op] = &perOp{}
	}

	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	end := measureFrom.Add(cfg.duration)
	for sched := start; sched.Before(end); sched = sched.Add(interval) {
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		op, nodes := draw()
		var body []byte
		path := ""
		switch op {
		case "search":
			path = "/search"
			body, _ = json.Marshal(map[string]any{"q": nodes[0], "method": "sea", "k": cfg.k, "graph": cfg.graph})
		case "batch":
			path = "/batch"
			body, _ = json.Marshal(map[string]any{"queries": nodes, "method": "sea", "k": cfg.k, "graph": cfg.graph})
		case "compare":
			path = "/compare"
			body, _ = json.Marshal(map[string]any{"q": nodes[0], "methods": []string{"sea", "structural"}, "k": cfg.k, "graph": cfg.graph})
		case "mutate":
			mutMu.Lock()
			mutSeq++
			tag := fmt.Sprintf("seaload-%d", mutSeq%64)
			mutMu.Unlock()
			path = "/admin/mutate"
			body, _ = json.Marshal(map[string]any{"graph": cfg.graph, "deltas": []map[string]any{
				{"op": "set_attr", "u": nodes[0], "text": []string{"seaload", tag}},
			}})
		}
		wg.Add(1)
		go func(sched time.Time, op, path string, body []byte) {
			defer wg.Done()
			class := fire(hc, cfg.url+path, body)
			lat := time.Since(sched)
			if sched.Before(measureFrom) {
				return // warmup: fired for server state, not measured
			}
			st := ops[op]
			if class == "" {
				total.Observe(lat.Nanoseconds())
				st.hist.Observe(lat.Nanoseconds())
			} else {
				st.errors.Observe(lat.Nanoseconds())
				classMu.Lock()
				classes[class]++
				classMu.Unlock()
			}
		}(sched, op, path, body)
	}
	wg.Wait()
	wall := time.Since(measureFrom)
	if wall > cfg.duration {
		wall = cfg.duration // responses landing after the window don't stretch the rate
	}

	snap := total.Snapshot()
	res := loadResult{
		URL: cfg.url, Graph: cfg.graph,
		QPSTarget: cfg.qps,
		MeanUS:    snap.Mean() / 1e3,
		P50US:     snap.Quantile(0.50) / 1e3,
		P90US:     snap.Quantile(0.90) / 1e3,
		P99US:     snap.Quantile(0.99) / 1e3,
		P999US:    snap.Quantile(0.999) / 1e3,
		MaxUS:     float64(snap.Max()) / 1e3,
		Ops:       make(map[string]opStats, len(ops)),
		wall:      wall,
	}
	for op, st := range ops {
		s := st.hist.Snapshot()
		e := st.errors.Snapshot()
		res.Requests += s.Count + e.Count
		res.Errors += e.Count
		res.Ops[op] = opStats{Count: s.Count + e.Count, Errors: e.Count, P99US: s.Quantile(0.99) / 1e3}
	}
	if secs := wall.Seconds(); secs > 0 {
		res.QPSAchieved = float64(res.Requests) / secs
	}
	if len(classes) > 0 {
		res.ErrorClasses = classes
	}
	return res
}

// runWriters is the closed-loop mutation mode: writers goroutines each fire
// one-delta set_attr mutations back-to-back against /admin/mutate for the
// window, measuring sustained group-commit mutation throughput. Unlike the
// open loop, each request's latency is measured from its own send: this
// mode asks "how fast CAN the write path commit under N concurrent
// writers", not "how does it behave at a fixed rate", so the closed loop's
// coordinated omission is the point rather than a hazard.
func runWriters(cfg runConfig, writers int) loadResult {
	hc := &http.Client{
		Timeout:   cfg.timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: writers + 16},
	}
	var (
		total   obs.Histogram
		errHist obs.Histogram
		classMu sync.Mutex
		classes = make(map[string]uint64, len(errorClassOrder))
		wg      sync.WaitGroup
	)
	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	end := measureFrom.Add(cfg.duration)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.nodes-1))
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if t0.After(end) {
					return
				}
				node := int(zipf.Uint64())
				tag := fmt.Sprintf("w%d-%d", w, seq%64)
				var class string
				if cfg.directCat != nil {
					class = classifyDirect(cfg.directCat.Mutate(cfg.graph,
						[]sealib.Mutation{sealib.SetAttrDelta(sealib.NodeID(node), []string{"seaload", tag}, nil)}))
				} else {
					body, _ := json.Marshal(map[string]any{"graph": cfg.graph, "deltas": []map[string]any{
						{"op": "set_attr", "u": node, "text": []string{"seaload", tag}},
					}})
					class = fire(hc, cfg.url+"/admin/mutate", body)
				}
				lat := time.Since(t0)
				if t0.Before(measureFrom) {
					continue // warmup: fired for server state, not measured
				}
				if class == "" {
					total.Observe(lat.Nanoseconds())
				} else {
					errHist.Observe(lat.Nanoseconds())
					classMu.Lock()
					classes[class]++
					classMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(measureFrom)
	if wall > cfg.duration {
		wall = cfg.duration
	}

	snap := total.Snapshot()
	e := errHist.Snapshot()
	res := loadResult{
		URL: cfg.url, Graph: cfg.graph,
		Writers:  writers,
		Requests: snap.Count + e.Count,
		Errors:   e.Count,
		MeanUS:   snap.Mean() / 1e3,
		P50US:    snap.Quantile(0.50) / 1e3,
		P90US:    snap.Quantile(0.90) / 1e3,
		P99US:    snap.Quantile(0.99) / 1e3,
		P999US:   snap.Quantile(0.999) / 1e3,
		MaxUS:    float64(snap.Max()) / 1e3,
		Ops: map[string]opStats{"mutate": {
			Count: snap.Count + e.Count, Errors: e.Count, P99US: snap.Quantile(0.99) / 1e3,
		}},
		wall: wall,
	}
	if secs := wall.Seconds(); secs > 0 {
		res.QPSAchieved = float64(res.Requests) / secs
	}
	if len(classes) > 0 {
		res.ErrorClasses = classes
	}
	return res
}

// classifyDirect maps a Catalog.Mutate outcome onto fire's error classes so
// -direct runs report through the same summary.
func classifyDirect(_ *sealib.MutateResult, err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, sealib.ErrOverloaded):
		return "shed_429"
	case errors.Is(err, sealib.ErrInvalidRequest):
		return "http_4xx"
	default:
		return "http_5xx"
	}
}

// errorClassOrder fixes the summary-line ordering of fire's error classes.
var errorClassOrder = []string{"refused", "timeout", "conn", "shed_429", "http_5xx", "http_4xx"}

// fire sends one request and classifies the outcome: "" is success, any
// other return names the failure mode — "refused" (nothing listening),
// "timeout" (client deadline hit), "conn" (other transport failures:
// resets, severed bodies), "shed_429" (server-side overload shedding),
// "http_5xx", "http_4xx". 404 counts as success: "no community satisfies
// the constraints" is a correct answer for a hard query node, not a
// serving failure.
func fire(hc *http.Client, url string, body []byte) string {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		var nerr net.Error
		switch {
		case errors.As(err, &nerr) && nerr.Timeout():
			return "timeout"
		case errors.Is(err, syscall.ECONNREFUSED):
			return "refused"
		default:
			return "conn"
		}
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	switch {
	case resp.StatusCode < 300 || resp.StatusCode == http.StatusNotFound:
		return ""
	case resp.StatusCode == http.StatusTooManyRequests:
		return "shed_429"
	case resp.StatusCode >= 500:
		return "http_5xx"
	default:
		return "http_4xx"
	}
}

// mergeRecord folds one run's record into the JSON array at path, replacing
// any record with the same experiment name (a re-run supersedes, never
// duplicates) and creating the file when absent.
func mergeRecord(path string, rec loadRecord) error {
	var records []loadRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &records); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	replaced := false
	for i := range records {
		if records[i].Experiment == rec.Experiment {
			records[i] = rec
			replaced = true
			break
		}
	}
	if !replaced {
		records = append(records, rec)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seaload:", err)
	os.Exit(1)
}
