// Command seaserve serves community-search queries over HTTP from a catalog
// of named datasets, each backed by a long-lived engine with a shared index
// and caches. Datasets mount from packed snapshots (cmd/datagen -pack or
// seacli pack), text-format files, or generated analogs; a manifest file
// mounts several at boot. Every query endpoint speaks the unified Request
// wire format ("method" selects the solver, "graph" selects the dataset),
// and per-request deadlines (-timeout, or a client disconnect) cancel the
// underlying search, not just the wait.
//
// The served graphs are live: POST /admin/mutate applies edge/node/attribute
// deltas in place (incremental index maintenance, scoped cache
// invalidation, no reload), -journal makes them durable through a
// write-ahead journal replayed at boot, and POST /admin/compact folds the
// journal into a fresh snapshot. SIGINT/SIGTERM drain in-flight queries
// (bounded by -drain) before the process exits cleanly.
//
// A journaled seaserve is also a replication primary: followers started
// with -follow bootstrap every dataset from its /admin/replicate snapshots,
// tail its journal, and serve the same answers read-only until promoted
// (POST /admin/promote, typically by cmd/searouter on primary death).
//
// Usage:
//
//	seaserve -snapshot facebook.snap -addr :8080
//	seaserve -snapshot facebook.snap -journal facebook.journal
//	seaserve -manifest catalog.json
//	seaserve -dataset facebook -scale 0.5
//	seaserve -load graph.txt -gamma 0.5 -timeout 2s
//	seaserve -follow http://primary:8080 -replica-dir /var/lib/sea -addr :8081
//	seaserve -snapshot facebook.snap -pprof 127.0.0.1:6060
//	  then: go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// Endpoints:
//
//	POST /search    {"q":12,"method":"sea","graph":"fb"}    one community
//	GET  /search?q=12&k=6&method=exact&graph=fb             same, for curl
//	POST /batch     {"queries":[1,2,3],"k":6}               one item per query
//	POST /compare   {"q":12,"methods":["sea","exact"]}      one item per method
//	GET  /compare?q=12&methods=sea,exact,vac                same, for curl
//	GET  /graphs                                            mounted datasets + stats
//	POST /admin/reload {"graph":"fb","path":"fb2.snap"}     hot-swap a dataset
//	POST /admin/mutate {"graph":"fb","deltas":[...]}        live mutation batch
//	POST /admin/compact {"graph":"fb"}                      fold journal → snapshot
//	GET  /healthz[?graph=fb]                                liveness, shape, version
//	GET  /stats[?graph=fb]                                  engine counters, caches, journal cursor
//	GET  /metrics                                           the same, Prometheus text format
//	GET  /admin/replicate?graph=fb                          snapshot bootstrap for a follower
//	GET  /admin/journal?graph=fb&lineage=L&from=V           journal tail past cursor V
//	GET  /admin/replication                                 role + per-dataset replication state
//	POST /admin/promote                                     follower → writable primary
//	POST /admin/follow {"primary":"http://..."}             re-point a follower
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	sealib "repro"
	"repro/internal/catalog"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		manifest     = flag.String("manifest", "", "mount the datasets listed in this JSON manifest")
		snapshot     = flag.String("snapshot", "", "mount a packed snapshot file")
		load         = flag.String("load", "", "mount a graph file (snapshot or text format)")
		dsName       = flag.String("dataset", "facebook", "generated dataset analog name")
		name         = flag.String("name", "", "catalog name for -snapshot/-load mounts (default: file basename)")
		journal      = flag.String("journal", "", "write-ahead mutation journal for the -snapshot/-load mount (replayed at boot)")
		compactEvery = flag.Int("compact-every", catalog.DefaultCompactEvery, "journal batches that trigger background compaction (0 = manual only)")
		scale        = flag.Float64("scale", 0.5, "dataset scale factor")
		gamma        = flag.Float64("gamma", 0.5, "attribute balance factor")
		resultCache  = flag.Int("result-cache", 0, "result cache entries (0 = default)")
		maxConc      = flag.Int("max-concurrent", 0, "max searches executing at once (0 = 2×GOMAXPROCS)")
		maxInFlight  = flag.Int("max-inflight", 0, "max cache-miss computations admitted per dataset before shedding with 429 (0 = no shedding)")
		timeout      = flag.Duration("timeout", 0, "per-request deadline (0 = none)")
		drain        = flag.Duration("drain", 10*time.Second, "shutdown drain timeout for in-flight queries")
		mmap         = flag.Bool("mmap", true, "serve aligned snapshots zero-copy from a read-only memory mapping")
		follow       = flag.String("follow", "", "run as a read-only follower replicating from this primary URL")
		replicaDir   = flag.String("replica-dir", "", "directory for follower replica snapshots and journals (default: a temp dir)")
		pollEvery    = flag.Duration("poll-every", cluster.DefaultPollEvery, "follower journal poll interval")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6060 (off when empty)")
		slowQuery    = flag.Duration("slow-query", 0, "log one structured JSON line to stderr per request at least this slow (0 = off)")
		faultSpec    = flag.String("faults", os.Getenv("SEAFAULTS"), "fault-injection spec, e.g. \"journal.fsync=prob:0.1,err:eio\" (default $SEAFAULTS; testing only)")
		faultSeed    = flag.Int64("faults-seed", 1, "fault-injection PRNG seed (deterministic per site)")
	)
	flag.Parse()
	if err := faults.Setup(*faultSpec, *faultSeed); err != nil {
		fail(err)
	}
	if *faultSpec != "" {
		fmt.Printf("seaserve: FAULT INJECTION ARMED: %s (seed %d)\n", *faultSpec, *faultSeed)
	}
	if *pprofAddr != "" {
		bound, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("seaserve: pprof on http://%s/debug/pprof/ (try: go tool pprof http://%s/debug/pprof/profile?seconds=10)\n", bound, bound)
	}

	cfg := sealib.DefaultEngineConfig()
	cfg.Gamma = *gamma
	cfg.ResultCacheSize = *resultCache
	cfg.MaxConcurrent = *maxConc
	cfg.MaxInFlight = *maxInFlight
	cfg.RequestTimeout = *timeout
	cfg.SlowQuery = *slowQuery

	t0 := time.Now()
	cat := sealib.NewCatalog()
	cat.SetMmap(*mmap)
	mountFile := func(path string) {
		dname := nameForPath(*name, path)
		if *journal == "" {
			if _, err := cat.MountPath(dname, path, cfg); err != nil {
				fail(err)
			}
			return
		}
		d, replayed, err := cat.MountPathJournaled(dname, path, *journal, cfg)
		if err != nil {
			fail(err)
		}
		d.SetCompactEvery(*compactEvery)
		if replayed > 0 {
			fmt.Printf("seaserve: replayed %d journaled mutation batch(es) onto %q\n", replayed, dname)
		}
	}
	var fol *cluster.Follower
	switch {
	case *follow != "":
		// Follower mode: nothing mounts locally — every dataset bootstraps
		// from the primary's replication snapshots into the replica dir and
		// stays caught up by tailing its journal.
		dir := *replicaDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "seaserve-replica-")
			if err != nil {
				fail(err)
			}
			dir = tmp
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			fail(err)
		}
		fol = cluster.NewFollower(cat, *follow, dir, cfg, *pollEvery)
		// A severed stream or a briefly-unreachable primary must not kill
		// the boot: retry the bootstrap with growing waits until the boot
		// deadline. Bootstrap fails clean (nothing mounted, no partial
		// files), so every retry starts fresh.
		bctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := fol.Bootstrap(bctx)
		for wait := 500 * time.Millisecond; err != nil; wait *= 2 {
			fmt.Fprintf(os.Stderr, "seaserve: bootstrap from %s failed: %v; retrying in %v\n", *follow, err, wait)
			select {
			case <-bctx.Done():
				cancel()
				fail(err)
			case <-time.After(wait):
			}
			err = fol.Bootstrap(bctx)
		}
		cancel()
	case *manifest != "":
		m, err := catalog.LoadManifest(*manifest)
		if err != nil {
			fail(err)
		}
		if err := cat.MountManifest(m, cfg); err != nil {
			fail(err)
		}
	case *snapshot != "":
		mountFile(*snapshot)
	case *load != "":
		mountFile(*load)
	default:
		d, err := sealib.GenerateDataset(*dsName, *scale)
		if err != nil {
			fail(err)
		}
		eng, err := sealib.NewEngine(d.Graph, cfg)
		if err != nil {
			fail(err)
		}
		if _, err := cat.Mount(*dsName, eng, cfg, fmt.Sprintf("generated %s@%g", *dsName, *scale)); err != nil {
			fail(err)
		}
	}

	boot := time.Since(t0).Round(time.Millisecond)
	role := ""
	if fol != nil {
		role = fmt.Sprintf(" as follower of %s", *follow)
	}
	fmt.Printf("seaserve: %d dataset(s) mounted in %v (default %q)%s; listening on %s\n",
		cat.Len(), boot, cat.Default(), role, *addr)
	for _, info := range cat.Infos() {
		serving := "heap"
		if info.Mapped {
			serving = fmt.Sprintf("mapped, %d bytes", info.MappedBytes)
		}
		fmt.Printf("  %s: %d nodes, %d edges (%s; %s)\n", info.Name, info.Nodes, info.Edges, info.Source, serving)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           cluster.NewNodeHandler(cat, cfg, fol),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}

	// Serve until SIGINT/SIGTERM, then drain: a deploy must not kill
	// in-flight queries mid-search. Shutdown stops the listener, waits up
	// to -drain for active requests, and the process exits 0 on a clean
	// drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if fol != nil {
		go fol.Run(ctx)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fail(err) // immediate listen/serve failure
	case <-ctx.Done():
	}
	stop()
	fmt.Printf("seaserve: signal received, draining for up to %v\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err := srv.Shutdown(dctx)
	if closeErr := cat.Close(); err == nil {
		err = closeErr
	}
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	fmt.Println("seaserve: drained, bye")
}

// nameForPath picks the catalog name for a single-file mount: the -name
// flag when set, else the file's basename without extension.
func nameForPath(nameFlag, path string) string {
	if nameFlag != "" {
		return nameFlag
	}
	base := filepath.Base(path)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	if base == "" || base == "." {
		return "default"
	}
	return base
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seaserve:", err)
	os.Exit(1)
}
