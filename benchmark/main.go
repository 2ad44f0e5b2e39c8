// Command benchmark is this repository's benchmark: four workloads, each
// driven in process through the catalog's HTTP handler by two closed-loop
// clients, reporting end-to-end metrics (untraced) or per-layer metrics
// (traced) and checking the answers it was given.
//
//	bash benchmark/run.sh --workload cold-core --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all                  # every workload, untraced then traced
//	bash benchmark/run.sh --workload hot-read -repeat 10
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. See README.md beside this file for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// config is one invocation.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	size    sizing
	outDir  string
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: cold-core, cold-truss, hot-read or live-mixed")
		seed    = flag.Int64("seed", 1, "seed the op list is generated from")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run, report the per-layer metrics; 0: report the end-to-end metrics")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, each in its own process")
		repeat  = flag.Int("repeat", 0, "run the workload this many times with consecutive seeds and report each metric's median, quartiles and spread against its bound")
		smoke   = flag.Bool("smoke", false, "shrink every input (self-test size)")
		outDir  = flag.String("out", "benchmark/out", "directory for scratch files and trace output")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *all {
		os.Exit(runAll(*seed, *seconds, *smoke, *outDir))
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *repeat > 0 {
		os.Exit(runRepeat(w, *repeat, *seed, *seconds, *trace, *smoke, *outDir))
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, size: fullSize, outDir: *outDir}
	if *smoke {
		cfg.size = smokeSize
	}
	res, err := runWorkload(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runWorkload sets the program up, runs the timed window (traced or not),
// runs the checks and returns the metrics of the mode asked for. Everything
// measured, in either mode, is also printed to log by name with its unit.
func runWorkload(cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	e, err := newEnv(w, cfg.outDir, cfg.size)
	if err != nil {
		return nil, err
	}
	defer e.cleanup()
	list := w.gen(w, e.ds, cfg.seed, cfg.size)
	fmt.Fprintf(log, "# %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d clients=%d dataset=%s nodes=%d edges=%d oplist=%016x\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), clients,
		w.dataset, e.ds.Graph.NumNodes(), e.ds.Graph.NumEdges(), list.hash())

	a, setupS, err := e.setUp()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			a.cat.Close()
		}
	}()
	warmS, expected, failures := warmUp(a.handler, list.warm)
	acked := 0
	for _, o := range e.touch {
		if o.kind.isMutation() {
			acked++
		}
	}

	values := map[string]float64{
		"setup_s":              setupS,
		"store.pack_s":         a.packS,
		"store.snapshot_bytes": float64(a.snapBytes),
		"catalog.mount_ms":     a.mountMS,
		"engine.warm_s":        warmS,
		"harness.ns_per_op":    emptyOpNS(),
	}

	window := time.Duration(cfg.seconds * float64(time.Second))
	decodeEvery := int64(w.decodeEvery)
	var tr *tracer
	if cfg.trace {
		if tr, err = newTracer(e, a, list.warm); err != nil {
			return nil, err
		}
		defer tr.close()
	}
	// The lead-in runs a fixed number of ops untimed, so that what is timed
	// is the steady state: the distance cache full, the collector paced, and
	// on live-mixed the hot set's hit ratio down from the 100% set-up left it
	// at to where invalidation and refill balance. It is a count, not a time,
	// because memory is read after it: on cold-* every op leaves an entry in
	// the result cache, so a resident set read after the timed window would
	// grow with the speed of the program.
	leadList := list.prefix(max(clients, w.leadOps/cfg.size.shrink))
	lead, _ := timed(a.handler, leadList, 0, time.Hour, decodeEvery, nil)
	next := int64(len(leadList.seq))
	// Two collections (FreeOSMemory starts with one): a sync.Pool gives its
	// contents up only at the second.
	runtime.GC()
	debug.FreeOSMemory()
	values["rss_mb"] = rssMB()

	eng := a.engine(e)
	before := eng.Stats()
	journalBefore := fileSize(a.journal)
	var st *runStats
	if !cfg.trace {
		st, _ = timed(a.handler, list, next, window, decodeEvery, nil)
	} else {
		// A quarter of the window untraced, on the same program, is the
		// reference the traced depth-1 median is compared with.
		ref, next := timed(a.handler, list, next, window/4, decodeEvery, nil)
		st, _ = timed(a.handler, list, next, window-window/4, 1, tr)
		lead.tally.merge(&ref.tally)
		if p50 := ref.all.quantile(0.5); p50 > 0 {
			values["harness.trace_overhead_frac"] = (st.all.quantile(0.5) - p50) / p50
		}
		whole, err := wholeGraph(e, a.snapshot)
		if err != nil {
			return nil, err
		}
		for name, v := range whole {
			values[name] = v
		}
	}
	after := eng.Stats()
	// Ops outside the measured window still count as attempted, and fail
	// the run when they fail.
	attempted, failed := lead.attempted+st.attempted, lead.failed+st.failed
	acked += lead.acked + st.acked
	failures = append(append(failures, lead.failures...), st.failures...)
	if st.exhausted {
		fmt.Fprintf(log, "# the op list ran out after %d ops, before the window ended\n", attempted)
	}

	// End to end.
	values["ops_per_s"] = float64(st.all.count()) / st.elapsed
	values["op_p50_us"] = us(st.all.quantile(0.50))
	values["op_p95_us"] = us(st.all.quantile(0.95))
	values["op_p99_us"] = us(st.all.quantile(0.99))
	values["op_mean_us"] = us(st.all.mean())
	if st.deltaN > 0 {
		values["delta_mean"] = st.deltaSum / float64(st.deltaN)
		values["satisfied_frac"] = float64(st.satisfied) / float64(st.deltaN)
	}

	// Per layer, from what the handler returned and the engine counted.
	values["rate_drift_frac"] = st.drift
	values["catalog.http_resp_bytes"] = float64(st.respBytes) / float64(max(1, st.attempted))
	if st.reads > 0 {
		values["catalog.no_community_frac"] = float64(st.notFound) / float64(st.reads)
	}
	search, mutate := st.byKind[opSearch], newRecorder()
	for k := opSetAttr; k < numKinds; k++ {
		mutate.merge(st.byKind[k])
		values["catalog.mutate_"+kindNames[k]+"_p50_us"] = us(st.byKind[k].quantile(0.5))
	}
	values["catalog.search_p50_us"] = us(search.quantile(0.50))
	values["catalog.search_p95_us"] = us(search.quantile(0.95))
	values["catalog.search_p99_us"] = us(search.quantile(0.99))
	values["catalog.batch_p50_us"] = us(st.byKind[opBatch].quantile(0.5))
	values["catalog.compare_p50_us"] = us(st.byKind[opCompare].quantile(0.5))
	values["catalog.mutate_p50_us"] = us(mutate.quantile(0.50))
	values["catalog.mutate_p95_us"] = us(mutate.quantile(0.95))
	engineCounters(values, before, after)
	if groups := after.DeltasApplied - before.DeltasApplied; groups > 0 {
		values["store.fsyncs_per_mutation"] = float64(after.Mutations-before.Mutations) / float64(groups)
		values["store.journal_bytes_per_mutation"] = float64(fileSize(a.journal)-journalBefore) / float64(groups)
	}
	if st.tr != nil {
		for name := range st.tr.layers {
			values[name] = st.tr.layers.mean(name)
		}
		values["harness.traced_ops"] = float64(st.tr.layers["harness.d1_ns"].n)
		if x := st.tr.layers["harness.twin_out_of_step"]; x != nil {
			values["harness.twin_out_of_step"] = float64(x.n)
		}
		values["catalog.search_hit_p50_us"] = us(st.tr.hit.quantile(0.5))
		values["catalog.search_miss_p50_us"] = us(st.tr.miss.quantile(0.5))
		path, err := writeTrace(cfg.outDir, w, cfg.seed, st.tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# %d spans written to %s (%d dropped)\n", len(st.tr.spans), path, st.tr.dropped)
	}

	// The checks that wait until the clock has stopped.
	if w.journaled {
		closed = true
		liveFailures, replayMS := verifyLive(e, a, list.warm, acked)
		failures = append(failures, liveFailures...)
		failed += len(liveFailures)
		values["store.replay_ms"] = replayMS
	} else {
		kept := append(st.answers, lead.answers...)
		static := verifyStatic(e, kept, expected)
		failures = append(failures, static...)
		failed += len(static)
		fmt.Fprintf(log, "# checked %d kept answers against the generated graph\n", len(kept))
	}
	fmt.Fprintf(log, "# %d of %d ops failed\n", failed, attempted)
	for _, f := range failures {
		fmt.Fprintln(log, "# FAILED:", f)
	}

	printValues(log, values)
	res := &result{Correct: failed == 0 && len(failures) == 0, Attempted: attempted, Failed: failed}
	if cfg.trace {
		res.Metrics = report(perLayer, values)
	} else {
		res.Metrics = report(endToEnd, values)
	}
	return res, nil
}

// engineCounters turns the engine's own counters over the timed window into
// the ratios the workloads are sized by.
func engineCounters(values map[string]float64, before, after engine.Stats) {
	queries := float64(after.Queries - before.Queries)
	if queries == 0 {
		return
	}
	values["engine.result_hit_frac"] = float64(after.ResultHits-before.ResultHits) / queries
	values["engine.coalesced_frac"] = float64(after.Coalesced-before.Coalesced) / queries
	values["engine.index_reject_frac"] = float64(after.IndexRejects-before.IndexRejects) / queries
	if dist := float64(after.DistHits - before.DistHits + after.DistMisses - before.DistMisses); dist > 0 {
		values["engine.dist_hit_frac"] = float64(after.DistHits-before.DistHits) / dist
	}
	if groups := float64(after.DeltasApplied - before.DeltasApplied); groups > 0 {
		values["engine.invalidated_per_mutation"] = float64(after.ResultInvalidations-before.ResultInvalidations) / groups
	}
}

// emptyOpNS is what the ruler itself costs per op: two clock reads and one
// recorder update around an empty call.
func emptyOpNS() float64 {
	const n = 1 << 20
	rec := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		rec.add(time.Since(t).Nanoseconds())
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// rssMB reads the process's resident set from /proc.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func fileSize(path string) int64 {
	if info, err := os.Stat(path); err == nil {
		return info.Size()
	}
	return 0
}

// printValues prints every measured value by name with its unit.
func printValues(log io.Writer, values map[string]float64) {
	units := map[string]string{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer, printedOnly} {
		for _, s := range specs {
			units[s.Name] = s.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		if _, ok := units[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(log, "%-36s %14.4f %s\n", name, values[name], units[name])
	}
}
