// Command dmsrouter is the scale-out routing tier for a dmsd cluster: a
// stateless HTTP front end that serves the same /v1 surface as a single
// dmsd while consistent-hashing documents across N shards, scattering
// queries to every shard with exact merges, and replicating model
// registrations cluster-wide (internal/dmscluster).
//
// Shards must run with the same -seed (replicated embedder and
// clustering models agree bit-for-bit, so scatter reductions are exact)
// and distinct -node-id values (per-shard document-ID namespaces). An
// unfitted cluster is bootstrapped by the first ingest: with -k > 0 the
// router fits every shard's clustering model on that same full batch.
//
// Membership is static with active health probing: a dead shard is
// ejected after -fail-after consecutive failures, ingest routes around
// it, reads merge the survivors (responses flagged "degraded"), and a
// recovered shard is re-admitted automatically. /metricsz serves the
// router's own families — per-node health (dms_router_node_*{node}), the
// membership epoch, uptime and build identity — followed by the
// federated fleet exposition (every healthy shard's families relabeled
// with node=<addr> plus dms_fleet_* aggregates); /debug/tracez serves
// tail-retained span trees for slow, errored, and degraded requests; and
// -slo objectives surface as dms_slo_* burn-rate families.
//
// Usage:
//
//	dmsd -addr 127.0.0.1:7801 -node-id a -seed 1 &
//	dmsd -addr 127.0.0.1:7802 -node-id b -seed 1 &
//	dmsd -addr 127.0.0.1:7803 -node-id c -seed 1 &
//	dmsrouter -addr 127.0.0.1:7718 \
//	          -shards 127.0.0.1:7801,127.0.0.1:7802,127.0.0.1:7803 \
//	          -k 8 -seed 1 \
//	          -slo 'nearest:p99<50ms,err<1%' -trace-ring 256
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairdms/internal/dmscluster"
	"fairdms/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "listen address")
	shardsFlag := flag.String("shards", "", "comma-separated dmsd shard addresses, in ring order (required)")
	k := flag.Int("k", 8, "cluster count for the coordinated bootstrap fit on the first ingest (0 = shards must be pre-fitted)")
	seed := flag.Int64("seed", 1, "determinism seed for the lookup merge's sampling; must match the shards' -seed")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default 128)")
	probeInterval := flag.Duration("probe-interval", time.Second, "active health-probe cadence (negative disables; serving failures still eject)")
	failAfter := flag.Int("fail-after", 2, "consecutive failures before a shard is ejected")
	retries := flag.Int("retries", 1, "per-shard HTTP retry count")
	timeout := flag.Duration("timeout", 30*time.Second, "per-shard HTTP exchange timeout")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	sloSpec := flag.String("slo", "", "per-endpoint objectives, e.g. 'nearest:p99<5ms,err<0.1%;recommend:p95<20ms' (empty disables the SLO layer)")
	traceRing := flag.Int("trace-ring", 256, "tail-based trace retention ring size (0 disables /debug/tracez)")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "retain any request slower than this, even when it succeeded (0 = only errored/degraded)")
	scrapeTimeout := flag.Duration("scrape-timeout", 2*time.Second, "per-request fleet metrics scrape budget for the federated /metricsz")
	flag.Parse()

	if *shardsFlag == "" {
		log.Fatal("dmsrouter: -shards is required")
	}
	var shards []string
	for _, s := range strings.Split(*shardsFlag, ",") {
		if s = strings.TrimSpace(s); s != "" {
			shards = append(shards, s)
		}
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("dmsrouter: %v", err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "dmsrouter")

	slos, err := obs.ParseSLOs(*sloSpec)
	if err != nil {
		log.Fatalf("dmsrouter: -slo: %v", err)
	}

	cluster, err := dmscluster.New(dmscluster.Config{
		Shards:        shards,
		Vnodes:        *vnodes,
		BootstrapK:    *k,
		Seed:          *seed,
		ProbeInterval: *probeInterval,
		FailAfter:     *failAfter,
		Retries:       *retries,
		Timeout:       *timeout,
		Logger:        logger,
	})
	if err != nil {
		log.Fatalf("dmsrouter: %v", err)
	}
	cluster.Start()
	defer cluster.Close()

	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{
		Logger:        logger,
		SLOs:          slos,
		TraceRing:     *traceRing,
		TraceSlow:     *traceSlow,
		ScrapeTimeout: *scrapeTimeout,
	})
	bound, err := router.Listen(*addr)
	if err != nil {
		log.Fatalf("dmsrouter: listen: %v", err)
	}
	logger.Info("serving", "addr", bound, "shards", len(shards), "slos", len(slos), "trace_ring", *traceRing)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	st := cluster.Stats()
	logger.Info("shutting down",
		"epoch", st.Epoch, "healthy", st.HealthyShards, "shards", st.Shards,
		"degraded_responses", st.DegradedResponses, "reroutes", st.Reroutes)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
	}
}
