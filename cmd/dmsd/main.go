// Command dmsd serves fairDMS — the FAIR Data Service and the FAIR Model
// Service — over HTTP (a JSON API; see internal/dmsapi for how its own
// tiers send samples), the networked deployment of the paper's Fig. 5
// architecture: training jobs at the HPC endpoint and monitors at the
// facility call one daemon for PDF-matched labeled data and
// closest-checkpoint recommendations.
//
// The daemon wires a docstore backend (in-process, or a remote dstore via
// -store), a fairds.Service with a deterministic lazily-initialized
// embedder (input width is learned from the first ingested batch, and the
// clustering module is bootstrap-fitted on it), and a fairms.Zoo.
//
// Everything the service knows is a document in that store: the labeled
// samples in -collection, the fitted clustering model in
// "<collection>.fit" and one document per zoo model in "<collection>.zoo",
// each written before it is published in memory. With a store that outlives
// the process (-wal-dir, or -store) a restart — clean or kill -9 — comes
// back fitted, with every acknowledged model, and answers reads with no
// client action; a restart under other -seed / -embed-* flags than the fit
// was recorded under is refused. With neither, all three are memory only.
//
// Opening the data service builds its in-process vector index from the
// store's persisted embeddings (no embedder pass needed), so a daemon that
// adopts a filled store or dstore serves nearest-label queries from memory
// from the first request; a store it cannot read stops it at startup.
//
// The daemon also embeds the server-side rapid-train subsystem
// (internal/trainer): /v1/train jobs warm-start from the zoo's
// recommended checkpoint and register their result back with lineage
// metadata, running on a bounded worker pool (-train-workers) with a
// queue of eight waiting jobs (saturation sheds with 429).
//
// With -wal-dir the in-process store is opened WAL-durable
// (docstore.OpenDurable): every write is logged before it is applied,
// startup replays the checkpoint and the log above it, a background loop
// compacts the log into a fresh checkpoint, and the wal counters surface on
// /metricsz as the dms_wal_* families. -fsync picks the durability/latency trade
// (always, interval, off).
//
// Requests run through the request pipeline dmsd shares with dmsrouter
// (dmsapi.Pipeline): a request or training job that fails, or takes at
// least -slow-threshold, keeps its span tree in the ring served at
// GET /debug/tracez?op=&min_ms=&error=&degraded= (0 disables it), and
// request failures are logged at -log-level (5xx warn, 4xx debug).
//
// Usage:
//
//	dmsd [-addr host:port] [-store addr] [-collection name] [-node-id id]
//	     [-wal-dir path] [-fsync always|interval|off] [-compact-interval 1m]
//	     [-k 8] [-embed-dim 8] [-embed-hidden 64] [-embed-scale 1]
//	     [-seed 1] [-train-workers 2]
//	     [-slow-threshold 250ms] [-pprof] [-log-level info]
//
// Admission (64 requests in flight, then 429), the result cache (128
// entries) and the ingest:batch cap (8192 documents, then 413) are
// dmsapi.ServerConfig's defaults.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
	"fairdms/internal/wal"
)

// logger is the daemon's leveled key=value event log, configured by
// -log-level in main before anything can write to it. Startup failures
// still use log.Fatalf (they predate the flag parse or must exit).
var logger *obs.Logger

// lazyEmbedder defers constructing the embedding model until the first
// batch arrives, because the input width is a property of the data (e.g.
// 81 for 9×9 Bragg patches) and a daemon starts before seeing any. The
// inner model is seeded deterministically, so two daemons configured alike
// embed alike — which keeps stored embeddings comparable across restarts.
// Identity is what "configured alike" means: fairds records it in the fit
// document and refuses to open a store recorded under another.
type lazyEmbedder struct {
	seed        int64
	hidden, dim int
	scale       float64

	mu    sync.Mutex
	inner embed.Embedder
}

func (l *lazyEmbedder) Dim() int { return l.dim }

func (l *lazyEmbedder) Identity() string {
	return fmt.Sprintf("autoencoder hidden=%d dim=%d scale=%g seed=%d", l.hidden, l.dim, l.scale, l.seed)
}

func (l *lazyEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	l.mu.Lock()
	if l.inner == nil {
		rng := rand.New(rand.NewSource(l.seed))
		var e embed.Embedder = embed.NewAutoencoder(rng, x.Dim(1), l.hidden, l.dim)
		// At factor 1 the scaled copy would equal the input bit for bit,
		// and the encoder's eval pass only reads its input.
		if l.scale != 1 {
			e = embed.Scaled{E: e, Factor: l.scale}
		}
		l.inner = e
		logger.Info("embedder initialized", "features", x.Dim(1), "dim", l.dim)
	}
	e := l.inner
	l.mu.Unlock()
	return e.Embed(x)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "listen address")
	storeAddr := flag.String("store", "", "external dstore address (empty = in-process store)")
	collection := flag.String("collection", "fairds", "docstore collection for labeled samples")
	nodeID := flag.String("node-id", "", "shard identity in a dmsrouter cluster; suffixes the collection so document IDs are namespaced per shard")
	walDir := flag.String("wal-dir", "", "directory for WAL-durable in-process store (empty = memory only; incompatible with -store)")
	fsyncPolicy := flag.String("fsync", "interval", "WAL fsync policy: always (fsync per commit), interval (background fsync), off")
	compactInterval := flag.Duration("compact-interval", time.Minute, "background WAL-into-checkpoint compaction period (0 = only at exit)")
	k := flag.Int("k", 8, "cluster count for the bootstrap fit on the first ingest")
	embedDim := flag.Int("embed-dim", 8, "embedding dimensionality")
	embedHidden := flag.Int("embed-hidden", 64, "embedder hidden width")
	embedScale := flag.Float64("embed-scale", 1, "input scale factor (e.g. 1/255 for 8-bit images)")
	seed := flag.Int64("seed", 1, "determinism seed for embedder init and sampling")
	trainWorkers := flag.Int("train-workers", 2, "parallel server-side training jobs (0 disables /v1/train)")
	slowThreshold := flag.Duration("slow-threshold", 250*time.Millisecond, "failed requests and ones at least this slow keep their span tree at /debug/tracez (0 disables)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logLevel := flag.String("log-level", "info", "minimum log level for daemon events and request failures (5xx warn, 4xx debug): debug, info, warn, error")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("dmsd: %v", err)
	}
	logger = obs.NewLogger(os.Stderr, level).With("component", "dmsd")
	if *nodeID != "" {
		logger = logger.With("node", *nodeID)
	}

	if *nodeID != "" {
		// Document IDs are sequential within a collection; a per-shard
		// collection suffix keeps them globally unique across a cluster.
		*collection = *collection + "-" + *nodeID
	}

	// The zoo lives where the samples do: zooStore is the sibling
	// collection "<collection>.zoo" of a store that outlives the process,
	// and stays nil — a memory-only zoo — beside a memory-only store.
	var backend fairds.DataStore
	var zooStore fairms.Store
	var storeClient *docstore.Client
	var durable *docstore.DurableStore
	switch {
	case *storeAddr != "":
		if *walDir != "" {
			log.Fatalf("dmsd: -wal-dir applies to the in-process store; the external store at %s owns its own durability", *storeAddr)
		}
		client, err := docstore.Dial(*storeAddr, 8)
		if err != nil {
			log.Fatalf("dmsd: dialing store: %v", err)
		}
		defer client.Close()
		storeClient = client
		remote := fairds.RemoteCollection{Client: client, Name: *collection}
		backend, zooStore = remote, remote.Sibling(".zoo")
		logger.Info("using external store", "store", *storeAddr, "collection", *collection)
	case *walDir != "":
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("dmsd: %v", err)
		}
		durable, err = docstore.OpenDurable(docstore.DurableOptions{Dir: *walDir, Policy: policy})
		if err != nil {
			log.Fatalf("dmsd: opening durable store: %v", err)
		}
		ws := durable.WalStats()
		logger.Info("durable store opened", "dir", *walDir, "fsync", ws.Policy,
			"replayed_txns", ws.ReplayedTxns, "torn", ws.TornTruncations, "corrupt", ws.CorruptRecords)
		col := durable.Collection(*collection)
		backend, zooStore = col, col.Sibling(".zoo")
	default:
		backend = docstore.NewStore().Collection(*collection)
	}

	ds, err := fairds.New(&lazyEmbedder{
		seed: *seed, hidden: *embedHidden, dim: *embedDim, scale: *embedScale,
	}, backend, fairds.Config{Seed: *seed})
	if err != nil {
		log.Fatalf("dmsd: building data service: %v", err)
	}

	zoo := fairms.NewZoo()
	if zooStore != nil {
		if zoo, err = fairms.OpenZoo(zooStore); err != nil {
			log.Fatalf("dmsd: opening model zoo: %v", err)
		}
	}
	if ds.K() > 0 || zoo.Len() > 0 {
		is := ds.IndexStats()
		logger.Info("service state restored from the store", "k", ds.K(), "fit", ds.FitID(), "models", zoo.Len(),
			"embeddings", is.Size, "corrupt_skipped", is.Corrupt)
	}

	cfg := dmsapi.ServerConfig{
		DS: ds, Zoo: zoo,
		BootstrapK:    *k,
		TrainWorkers:  *trainWorkers,
		SlowThreshold: *slowThreshold,
		EnablePprof:   *enablePprof,
		Logger:        logger,
	}
	if durable != nil {
		cfg.WalStats = durable.WalStats
	}
	srv, err := dmsapi.NewServer(cfg)
	if err != nil {
		log.Fatalf("dmsd: %v", err)
	}
	if storeClient != nil {
		// Surface store RPC traffic on the daemon's /metricsz: counters and
		// a latency summary keyed by wire op, fed by the docstore client's
		// round-trip hook.
		reg := srv.Registry()
		rpcs := reg.CounterVec("dms_store_rpcs_total", "docstore round trips by wire op", "op")
		rpcErrs := reg.CounterVec("dms_store_rpc_errors_total", "failed docstore round trips by wire op", "op")
		rpcLat := reg.HistogramVec("dms_store_rpc_seconds", "docstore round-trip latency by wire op", "op")
		storeClient.Instrument(func(op string, d time.Duration, err error) {
			rpcs.With(op).Inc()
			if err != nil {
				rpcErrs.With(op).Inc()
			}
			rpcLat.With(op).Record(d)
		})
	}
	// Armed before Listen: once the serving line is logged, a SIGTERM
	// takes the shutdown path below, never Go's default exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("dmsd: listen: %v", err)
	}
	logger.Info("serving", "addr", bound, "train_workers", *trainWorkers)

	stopCompact := make(chan struct{})
	var compactWG sync.WaitGroup
	if durable != nil && *compactInterval > 0 {
		compactWG.Add(1)
		go func() {
			defer compactWG.Done()
			t := time.NewTicker(*compactInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := durable.Compact(); err != nil {
						logger.Error("wal compaction failed", "err", err)
					}
				case <-stopCompact:
					return
				}
			}
		}()
	}

	<-sig
	logger.Info("shutting down", "requests", srv.Requests(), "shed", srv.Shed(), "in_flight", srv.InFlight())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "err", err)
	}
	if durable != nil {
		close(stopCompact)
		compactWG.Wait()
		// Compact at exit so the next startup replays one checkpoint instead
		// of the session's whole log; Close still fsyncs whatever the
		// compaction could not fold in.
		if err := durable.Compact(); err != nil {
			logger.Error("final wal compaction failed", "err", err)
		}
		if err := durable.Close(); err != nil {
			logger.Error("closing durable store failed", "err", err)
		}
	}
}
