// Command searouter fronts a replicated seaserve cluster with a router: one
// address clients talk to, many replicas doing the work.
//
// Reads spread over the replica set chosen by consistent hashing on the
// dataset name — /search, /batch and /compare each proxy whole to one
// in-sync replica, round-robin, and its answer comes back verbatim. Writes
// (/admin/*) and everything else forward to the primary. A health prober drops dead and lagging
// members from the read set, and when the primary dies the router promotes
// the most-caught-up follower and re-points the rest.
//
// Failed reads retry against a different in-sync replica (bounded budget,
// jittered exponential backoff); every member has a circuit breaker that
// opens on consecutive failures so a struggling node stops absorbing
// traffic before the prober notices. Writes are never retried.
//
// Every response carries an X-Request-ID (generated when the client sends
// none), propagated to every upstream request it makes.
//
// Usage:
//
//	searouter -members http://n1:8080,http://n2:8081,http://n3:8082
//	searouter -members ... -primary http://n1:8080 -rf 2 -max-lag 8
//	searouter -members ... -pprof 127.0.0.1:6061
//	  then: go tool pprof http://127.0.0.1:6061/debug/pprof/profile?seconds=10
//
// Endpoints:
//
//	GET|POST /search /compare       one in-sync replica, round-robin
//	POST /batch                     one in-sync replica, round-robin
//	POST /admin/mutate ...          forwarded to the current primary
//	GET  /healthz                   the router's member-health view
//	GET  /metrics                   router counters, Prometheus text format
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", ":8070", "listen address")
		members    = flag.String("members", "", "comma-separated base URLs of every cluster node (required)")
		primary    = flag.String("primary", "", "member writes forward to (default: first member)")
		rf         = flag.Int("rf", 2, "replication factor: read-set size per dataset")
		shardTO    = flag.Duration("shard-timeout", 2*time.Second, "deadline for each read attempt (a /search, /batch or /compare try) and health probe")
		probeEvery = flag.Duration("probe-every", time.Second, "member health-probe interval")
		failAfter  = flag.Int("fail-after", 3, "consecutive probe failures that mark a member dead")
		maxLag     = flag.Uint64("max-lag", 8, "max batches a follower may lag and still serve reads")
		retries    = flag.Int("retries", 2, "read retry budget per request, each against a different replica (-1 disables)")
		retryBase  = flag.Duration("retry-base", 50*time.Millisecond, "first retry backoff; attempt n waits ~2^n times this, jittered")
		brkThresh  = flag.Int("breaker-threshold", 5, "consecutive failures that open a member's circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker refuses traffic before one half-open probe")
		drain      = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this loopback address, e.g. 127.0.0.1:6061 (off when empty)")
		faultSpec  = flag.String("faults", os.Getenv("SEAFAULTS"), "fault-injection spec, e.g. \"router.shard=prob:0.2,err:reset\" (default $SEAFAULTS; testing only)")
		faultSeed  = flag.Int64("faults-seed", 1, "fault-injection PRNG seed (deterministic per site)")
	)
	flag.Parse()
	if *members == "" {
		fail(errors.New("need -members"))
	}
	if err := faults.Setup(*faultSpec, *faultSeed); err != nil {
		fail(err)
	}
	if *faultSpec != "" {
		fmt.Printf("searouter: FAULT INJECTION ARMED: %s (seed %d)\n", *faultSpec, *faultSeed)
	}
	if *pprofAddr != "" {
		bound, err := obs.StartPprof(*pprofAddr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("searouter: pprof on http://%s/debug/pprof/ (try: go tool pprof http://%s/debug/pprof/profile?seconds=10)\n", bound, bound)
	}
	var urls []string
	for _, m := range strings.Split(*members, ",") {
		if m = strings.TrimSpace(m); m != "" {
			urls = append(urls, m)
		}
	}
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Members:           urls,
		Primary:           *primary,
		ReplicationFactor: *rf,
		ShardTimeout:      *shardTO,
		ProbeEvery:        *probeEvery,
		FailAfter:         *failAfter,
		MaxLag:            *maxLag,
		Retries:           *retries,
		RetryBase:         *retryBase,
		BreakerThreshold:  *brkThresh,
		BreakerCooldown:   *brkCool,
	})
	if err != nil {
		fail(err)
	}
	defer router.Close()

	fmt.Printf("searouter: fronting %d member(s), primary %s; listening on %s\n",
		len(urls), router.Primary(), *addr)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Printf("searouter: signal received, draining for up to %v\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	fmt.Println("searouter: drained, bye")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "searouter:", err)
	os.Exit(1)
}
