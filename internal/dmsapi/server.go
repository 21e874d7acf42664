package dmsapi

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
	"fairdms/internal/trainer"
)

// Defaults for ServerConfig zero values.
const (
	defaultMaxInFlight  = 64
	defaultCacheSize    = 128
	defaultMaxBatchDocs = 8192 // documents per ingest:batch request
	traceRingSize       = 64   // retained span trees when SlowThreshold arms the ring
)

// ServerConfig wires a Server to its two services and tunes its behavior.
type ServerConfig struct {
	// DS is the FAIR Data Service instance to serve. Required.
	DS *fairds.Service
	// Zoo is the FAIR Model Service model zoo to serve. Required.
	Zoo *fairms.Zoo
	// MaxInFlight bounds concurrently handled requests; excess load is shed
	// with 429 so a burst degrades into fast rejections instead of a pileup
	// (health and metrics endpoints are exempt). Zero means
	// defaultMaxInFlight; negative means unlimited.
	MaxInFlight int
	// CacheSize bounds the LRU of completed recommend/PDF results. Zero
	// means defaultCacheSize; negative disables memoization (in-flight
	// coalescing stays on).
	CacheSize int
	// BootstrapK, when positive, lets a daemon start with an unfitted data
	// service: the first ingest fits the clustering module with K =
	// BootstrapK on that batch before storing it. Zero requires the caller
	// to have fitted clusters already.
	BootstrapK int
	// MaxBodyBytes caps request-body size; oversized bodies fail instead of
	// occupying memory and an admission slot indefinitely. Zero means
	// defaultMaxBodyBytes; negative means unlimited.
	MaxBodyBytes int64
	// MaxBatchDocs caps documents per ingest:batch request (413 beyond it),
	// bounding the work one request can pin. Zero means
	// defaultMaxBatchDocs; negative means unlimited.
	MaxBatchDocs int
	// TrainWorkers enables the embedded training subsystem (/v1/train):
	// the number of jobs trained in parallel. Zero disables training (the
	// /v1/train routes 404).
	TrainWorkers int
	// TrainQueue bounds jobs waiting for a training worker; submissions
	// past it are shed with 429. Zero means trainer.DefaultQueue.
	TrainQueue int
	// SlowThreshold enables always-on tail-based trace retention: requests
	// (and training jobs) that failed or ran at least this long keep their
	// full span tree in a ring served at GET /debug/tracez. Zero or
	// negative disables the ring (the route answers 404) and with it the
	// per-request tracing overhead for unsampled requests.
	SlowThreshold time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling surface should not be reachable on every deployment).
	EnablePprof bool
	// WalStats, when non-nil, surfaces the durability counters of a
	// WAL-backed document store on /metricsz (the dms_wal_* families) —
	// docstore.DurableStore.WalStats fits as is. The daemon installs it
	// when it runs the store in WAL-durable mode; nil omits the families.
	WalStats func() docstore.WalStats
	// Logger receives request failures (5xx at warn, 4xx at debug) and
	// fit / training-job lifecycle events; nil silences them.
	Logger *obs.Logger
}

// Server exposes a fairds.Service and fairms.Zoo over HTTP. It is
// production-shaped: bounded in-flight concurrency with 429 shedding, a
// coalescing LRU cache on the hot read paths (recommend, PDF), per-endpoint
// request/error/latency series surfaced at /metricsz, and graceful
// shutdown. The request path itself — admission, tracing, metrics, the
// error envelope, /debug/tracez, the listener — is the embedded Pipeline,
// the same code dmsrouter runs. Safe for concurrent use.
type Server struct {
	*Pipeline
	cfg ServerConfig

	// fitMu keeps the bootstrap a single fit: ensureClusters and handleFit
	// hold it from their unfitted check through the fit. The data service
	// and the zoo lock internally, and a read during the fit is answered
	// 409 not_fitted at once.
	fitMu sync.Mutex

	cache *cache
	// zooGen and the data service's fit id version the cache keyspace:
	// adding a model invalidates recommend results, a fit invalidates PDF
	// results and — models of another fit no longer rank — recommend
	// results too. A new version orphans stale entries, which age out of
	// the LRU.
	zooGen atomic.Uint64

	// trainer is the embedded training-job subsystem (nil when
	// TrainWorkers == 0). Its jobs bump zooGen when a checkpoint lands in
	// the zoo.
	trainer *trainer.Manager
}

// NewServer validates the config and builds the routing table; call Listen
// to start serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.DS == nil || cfg.Zoo == nil {
		return nil, errors.New("dmsapi: server needs both a data service and a model zoo")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = defaultCacheSize
	}
	if cfg.MaxBatchDocs == 0 {
		cfg.MaxBatchDocs = defaultMaxBatchDocs
	}
	pc := PipelineConfig{
		MetricPrefix: "dms_",
		RootSpan:     "request",
		MaxBodyBytes: cfg.MaxBodyBytes,
		MaxInFlight:  cfg.MaxInFlight,
		TraceSlow:    cfg.SlowThreshold,
		Logger:       cfg.Logger,
	}
	if cfg.SlowThreshold > 0 {
		pc.TraceRing = traceRingSize
	}
	s := &Server{
		Pipeline: NewPipeline(pc),
		cfg:      cfg,
		cache:    newCache(max(cfg.CacheSize, 0)),
	}
	s.registerMetrics()

	s.Handle("POST "+PathIngest, "data.ingest", 0, s.handleIngest)
	s.Handle("POST "+PathIngestBatch, "data.ingest_batch", 0, s.handleIngestBatch)
	s.Handle("POST "+PathCertainty, "data.certainty", 0, s.handleCertainty)
	s.Handle("POST "+PathLookup, "data.lookup", 0, s.handleLookup)
	s.Handle("POST "+PathNearest, "data.nearest", 0, s.handleNearest)
	s.Handle("POST "+PathPDF, "data.pdf", 0, s.handlePDF)
	s.Handle("POST "+PathFit, "data.fit", 0, s.handleFit)
	s.Handle("POST "+PathSamples, "data.samples", 0, s.handleSamples)
	s.Handle("POST "+PathDraw, "data.draw", 0, s.handleDraw)
	s.Handle("POST "+PathModels, "models.add", 0, s.handleAddModel)
	s.Handle("GET "+PathModels, "models.list", 0, s.handleListModels)
	s.Handle("POST "+PathRecommend, "models.recommend", 0, s.handleRecommend)
	s.Handle("GET "+PathCheckpoint, "models.checkpoint", 0, s.handleCheckpoint)
	s.Handle("GET "+PathHealth, "healthz", ShedExempt|Meta, s.handleHealth)
	s.Handle("GET "+PathMetrics, "metricsz", ShedExempt|Meta, s.handleMetrics)
	if cfg.EnablePprof {
		mux := s.Handler()
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	if cfg.TrainWorkers > 0 {
		mgr, err := trainer.New(trainer.Config{
			DS:      cfg.DS,
			Zoo:     cfg.Zoo,
			Workers: cfg.TrainWorkers,
			Queue:   cfg.TrainQueue,
			// A checkpoint landing in the zoo invalidates memoized
			// recommend results exactly like a client-side model add.
			OnRegister: func(string) { s.zooGen.Add(1) },
			// Job stage timings land in the same registry and retention
			// ring as serving traffic: epoch durations under
			// dms_train_epoch_seconds, and a job that failed or ran longer
			// than the request threshold keeps its span tree in
			// /debug/tracez as op train.job.
			Obs: s.Registry(),
			OnTrace: func(d time.Duration, err error, tr *obs.Trace) {
				s.Retain("train.job", d, err, tr)
			},
			Logger: cfg.Logger,
		})
		if err != nil {
			return nil, err
		}
		s.trainer = mgr
		mgr.Start()
		// Train submissions are not shed by the global admission gate: the
		// trainer's own bounded queue is the backpressure (429 on
		// saturation), and a queued submission costs almost nothing while
		// held. Cancels are exempt too — under overload, the one request
		// that frees an expensive training worker must not be the one
		// rejected. So is a job's status: with wait= it is a long-poll that
		// must not hold an admission slot while it sleeps.
		s.Handle("POST "+PathTrain, "train.submit", ShedExempt, s.handleTrainSubmit)
		s.Handle("GET "+PathTrain, "train.list", 0, s.handleTrainList)
		s.Handle("GET "+PathTrainJob, "train.get", ShedExempt, s.handleTrainGet)
		s.Handle("POST "+PathTrainJob, "train.cancel", ShedExempt, s.handleTrainCancel)
	}
	return s, nil
}

// Trainer exposes the embedded training manager (nil when training is
// disabled) — used by the daemon and tests.
func (s *Server) Trainer() *trainer.Manager { return s.trainer }

// registerMetrics exposes the server's own counters on /metricsz. Cache,
// index, train and WAL counters stay owned by their existing atomics and
// are read through closures at scrape time. The identity, request, shed,
// in-flight, retention and per-endpoint series are the pipeline's.
func (s *Server) registerMetrics() {
	r := s.Registry()
	r.GaugeFunc("dms_cluster_k", "fitted cluster count (0 = awaiting bootstrap)",
		func() float64 { return float64(s.cfg.DS.K()) })

	r.CounterFunc("dms_cache_hits_total", "coalescing-cache hits", s.cache.hits.Load)
	r.CounterFunc("dms_cache_misses_total", "coalescing-cache misses", s.cache.misses.Load)
	r.CounterFunc("dms_cache_coalesced_total", "callers that piggybacked on an in-flight compute", s.cache.coalesced.Load)
	r.CounterFunc("dms_cache_evictions_total", "LRU evictions", s.cache.evictions.Load)
	r.GaugeFunc("dms_cache_size", "retained cache entries",
		func() float64 { return float64(s.cache.len()) })

	// IndexStats reads the index's counters under its read lock at most,
	// so scrapes never wait on queries or the bootstrap fit.
	r.GaugeFunc("dms_index_size", "indexed vectors",
		func() float64 { return float64(s.cfg.DS.IndexStats().Size) })
	r.CounterFunc("dms_index_hits_total", "nearest-label probes, one per queried sample",
		func() int64 { return s.cfg.DS.IndexStats().Hits })
	r.CounterFunc("dms_index_probed_total", "vectors distance-compared by the index",
		func() int64 { return s.cfg.DS.IndexStats().Probed })
	r.CounterFunc("dms_index_corrupt_total", "stored documents left out of the index as corrupt",
		func() int64 { return s.cfg.DS.IndexStats().Corrupt })

	if s.cfg.TrainWorkers > 0 {
		trainStats := func(pick func(trainer.Stats) int64) func() int64 {
			return func() int64 {
				if s.trainer == nil { // scrape racing construction
					return 0
				}
				return pick(s.trainer.Stats())
			}
		}
		r.CounterFunc("dms_train_submitted_total", "training jobs submitted",
			trainStats(func(t trainer.Stats) int64 { return t.Submitted }))
		r.CounterFunc("dms_train_completed_total", "training jobs completed",
			trainStats(func(t trainer.Stats) int64 { return t.Completed }))
		r.CounterFunc("dms_train_failed_total", "training jobs failed",
			trainStats(func(t trainer.Stats) int64 { return t.Failed }))
		r.CounterFunc("dms_train_canceled_total", "training jobs canceled",
			trainStats(func(t trainer.Stats) int64 { return t.Canceled }))
		r.CounterFunc("dms_train_warm_starts_total", "jobs warm-started from a zoo checkpoint",
			trainStats(func(t trainer.Stats) int64 { return t.WarmStarts }))
		r.CounterFunc("dms_train_cold_starts_total", "jobs trained from scratch",
			trainStats(func(t trainer.Stats) int64 { return t.ColdStarts }))
		r.GaugeFunc("dms_train_queue_depth", "jobs waiting for a training worker",
			func() float64 {
				if s.trainer == nil {
					return 0
				}
				return float64(s.trainer.Stats().QueueDepth)
			})
		r.GaugeFunc("dms_train_active", "jobs currently training",
			func() float64 {
				if s.trainer == nil {
					return 0
				}
				return float64(s.trainer.Stats().Active)
			})
	}

	if s.cfg.WalStats != nil {
		walStat := func(pick func(docstore.WalStats) int64) func() int64 {
			return func() int64 { return pick(s.cfg.WalStats()) }
		}
		r.CounterFunc("dms_wal_appends_total", "WAL records appended",
			walStat(func(w docstore.WalStats) int64 { return w.Appends }))
		r.CounterFunc("dms_wal_bytes_total", "WAL bytes appended",
			walStat(func(w docstore.WalStats) int64 { return w.AppendedBytes }))
		r.CounterFunc("dms_wal_syncs_total", "WAL fsync calls",
			walStat(func(w docstore.WalStats) int64 { return w.Syncs }))
		r.CounterFunc("dms_wal_replays_total", "WAL segment replays at startup",
			walStat(func(w docstore.WalStats) int64 { return w.Replays }))
		r.CounterFunc("dms_wal_replayed_records_total", "WAL records replayed at startup",
			walStat(func(w docstore.WalStats) int64 { return w.ReplayedRecords }))
		r.CounterFunc("dms_wal_torn_truncations_total", "torn WAL tails truncated during replay",
			walStat(func(w docstore.WalStats) int64 { return w.TornTruncations }))
		r.CounterFunc("dms_wal_corrupt_records_total", "corrupt WAL records truncated during replay",
			walStat(func(w docstore.WalStats) int64 { return w.CorruptRecords }))
		r.CounterFunc("dms_wal_compactions_total", "WAL compactions folded into the snapshot",
			walStat(func(w docstore.WalStats) int64 { return w.Compactions }))
		r.CounterFunc("dms_wal_replayed_txns_total", "store transactions re-applied from the WAL at startup",
			walStat(func(w docstore.WalStats) int64 { return w.ReplayedTxns }))
		r.CounterFunc("dms_wal_replay_skipped_ops_total", "replayed WAL operations skipped: undecodable, or already in the checkpoint",
			walStat(func(w docstore.WalStats) int64 { return w.ReplaySkippedOps }))
		r.CounterFunc("dms_wal_rotations_total", "WAL segment rotations",
			walStat(func(w docstore.WalStats) int64 { return w.Rotations }))
		r.CounterFunc("dms_wal_segments_removed_total", "WAL segments deleted once folded into the checkpoint",
			walStat(func(w docstore.WalStats) int64 { return w.SegmentsRemoved }))
	}
}

// Shutdown gracefully stops the server: the listener closes immediately,
// in-flight requests get until ctx expires to finish, and the training
// subsystem stops accepting jobs, cancels the running ones, and drains
// its workers.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.Pipeline.Shutdown(ctx)
	if s.trainer != nil {
		if err := s.trainer.Shutdown(ctx); err != nil && httpErr == nil {
			httpErr = err
		}
	}
	return httpErr
}

// ---------------------------------------------------------------------------
// Data-plane handlers

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req IngestRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	if err := s.ensureClusters(samples); err != nil {
		return err
	}
	ids, err := s.cfg.DS.IngestLabeledContext(r.Context(), samples, req.Dataset)
	if err != nil {
		return serviceError(err)
	}
	return WriteBody(w, r, IngestResponse{IDs: ids})
}

// handleIngestBatch is the high-throughput ingest path: per-document
// failure reporting instead of all-or-nothing, over the same one embed
// pass and one store commit as handleIngest
// (fairds.IngestLabeledBatchContext). A malformed wire sample is rejected
// at this boundary with a DocError; the survivors bootstrap the
// clustering model if needed and commit.
func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) error {
	var req IngestBatchRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if len(req.Samples) == 0 {
		return errf(http.StatusBadRequest, "ingest-batch: empty sample batch")
	}
	if s.cfg.MaxBatchDocs > 0 && len(req.Samples) > s.cfg.MaxBatchDocs {
		return errf(http.StatusRequestEntityTooLarge,
			"ingest-batch: %d documents exceeds the %d-document cap (split the batch)",
			len(req.Samples), s.cfg.MaxBatchDocs)
	}

	resp := IngestBatchResponse{IDs: make([]string, len(req.Samples))}
	valid := make([]*codec.Sample, 0, len(req.Samples))
	validIdx := make([]int, 0, len(req.Samples))
	for i := range req.Samples {
		smp, err := DecodeSample(req.Samples[i])
		if err != nil {
			resp.Errors = append(resp.Errors, DocError{Index: i, Error: err.Error()})
			continue
		}
		valid = append(valid, smp)
		validIdx = append(validIdx, i)
	}

	if len(valid) > 0 {
		// The bootstrap fit collates its input, which would fail the whole
		// request on a mixed-width batch — but per-document failure is this
		// endpoint's contract, so only documents matching the batch's
		// reference width (the first valid sample, same rule as
		// fairds' ingest) feed the fit; the off-width rest still get
		// their individual errors from the service below.
		fitSet := valid
		refWidth := valid[0].Elems()
		for _, smp := range valid[1:] {
			if smp.Elems() != refWidth {
				fitSet = make([]*codec.Sample, 0, len(valid))
				for _, s := range valid {
					if s.Elems() == refWidth {
						fitSet = append(fitSet, s)
					}
				}
				break
			}
		}
		if err := s.ensureClusters(fitSet); err != nil {
			return err
		}
		res, err := s.cfg.DS.IngestLabeledBatchContext(r.Context(), valid, req.Dataset, fairds.BatchOptions{})
		if err != nil {
			return serviceError(err)
		}
		for j, id := range res.IDs {
			resp.IDs[validIdx[j]] = id
		}
		for _, de := range res.Errors {
			resp.Errors = append(resp.Errors, DocError{Index: validIdx[de.Index], Error: de.Err.Error()})
		}
	}
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Index < resp.Errors[j].Index })
	for _, id := range resp.IDs {
		if id != "" {
			resp.Inserted++
		}
	}
	return WriteBody(w, r, resp)
}

// ensureClusters performs the bootstrap fit: a daemon that started with an
// empty store fits its clustering module on the first ingested batch.
// Concurrent first ingests wait on fitMu and land under the one fit.
func (s *Server) ensureClusters(samples []*codec.Sample) error {
	if s.cfg.BootstrapK <= 0 || s.cfg.DS.K() > 0 {
		return nil
	}
	s.fitMu.Lock()
	defer s.fitMu.Unlock()
	if s.cfg.DS.K() > 0 { // raced with another bootstrapper
		return nil
	}
	return s.fitLocked("ingest", samples, s.cfg.BootstrapK)
}

// fitLocked fits the clustering model with k clusters on samples. The
// caller holds fitMu and has checked the service is unfitted; op prefixes
// a 400.
func (s *Server) fitLocked(op string, samples []*codec.Sample, k int) error {
	x, err := fairds.Collate(samples)
	if err != nil {
		return errf(http.StatusBadRequest, "%s: %v", op, err)
	}
	err = s.cfg.DS.FitClustersK(x, k)
	tensor.Release(x)
	if err != nil {
		return serviceError(err)
	}
	s.cfg.Logger.Info("fitted clusters", "via", op, "k", k, "fit", s.cfg.DS.FitID(), "samples", len(samples))
	return nil
}

func (s *Server) handleCertainty(w http.ResponseWriter, r *http.Request) error {
	var req CertaintyRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return errf(http.StatusBadRequest, "certainty: %v", err)
	}
	threshold := req.Threshold
	if threshold <= 0 {
		threshold = fairds.DefaultMembershipCut
	}
	cert, err := s.cfg.DS.CertaintyContext(r.Context(), x, threshold)
	tensor.Release(x)
	if err != nil {
		return serviceError(err)
	}
	return WriteBody(w, r, CertaintyResponse{Certainty: cert})
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) error {
	var req LookupRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return errf(http.StatusBadRequest, "lookup: %v", err)
	}
	labeled, err := s.cfg.DS.LookupLabeledContext(r.Context(), x)
	tensor.Release(x)
	if err != nil {
		return serviceError(err)
	}
	return WriteBody(w, r, LookupResponse{Samples: FromCodecSlice(labeled)})
}

func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request) error {
	var req NearestRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	var exclude map[string]bool
	if len(req.Exclude) > 0 {
		exclude = make(map[string]bool, len(req.Exclude))
		for _, id := range req.Exclude {
			exclude[id] = true
		}
	}
	matches, err := s.cfg.DS.NearestMatchesExcluding(r.Context(), samples, req.Distinct, exclude)
	if err != nil {
		return serviceError(err)
	}
	out := make([]Match, len(matches))
	for i, m := range matches {
		if m.DocID != "" {
			out[i] = Match{DocID: m.DocID, Dist: m.Dist, Found: true}
		}
	}
	return WriteBody(w, r, NearestResponse{Matches: out})
}

func (s *Server) handlePDF(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	// The encoding is part of the key: it decides how the bytes are read.
	contentType := r.Header.Get("Content-Type")
	key := fmt.Sprintf("pdf:%s:%t:%s", s.cfg.DS.FitID(), isFrames(contentType), bodyHash(body))
	v, err := s.cache.do(r.Context(), key, func(ctx context.Context) (any, error) {
		var req PDFRequest
		_, sp := obs.StartSpan(ctx, "decode")
		err := unmarshalBody(contentType, body, &req)
		sp.End()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "pdf: decoding request: %v", err)
		}
		samples, err := decodeSamples(req.Samples)
		if err != nil {
			return nil, err
		}
		x, err := fairds.Collate(samples)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "pdf: %v", err)
		}
		pdf, _, err := s.cfg.DS.DatasetPDFContext(ctx, x)
		tensor.Release(x)
		if err != nil {
			return nil, serviceError(err)
		}
		return PDFResponse{PDF: pdf, K: len(pdf)}, nil
	})
	if err != nil {
		return err
	}
	return WriteBody(w, r, v)
}

// handleFit explicitly fits the clustering model — the cluster router's
// coordinated bootstrap: every shard is fitted on the same full batch
// (and the shards share an embedder seed), so the replicated models
// agree and scatter-gather reductions stay exact. Idempotent: a fitted
// service reports its K and does nothing.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) error {
	var req FitRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if req.K <= 0 {
		return errf(http.StatusBadRequest, "fit: k must be positive, got %d", req.K)
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	s.fitMu.Lock()
	defer s.fitMu.Unlock()
	if k := s.cfg.DS.K(); k > 0 {
		return WriteBody(w, r, FitResponse{K: k})
	}
	if err := s.fitLocked("fit", samples, req.K); err != nil {
		return err
	}
	return WriteBody(w, r, FitResponse{K: s.cfg.DS.K(), Fitted: true})
}

// handleSamples fetches stored samples by ID — the cluster router's
// lookup merge retrieves each shard's contribution through this.
func (s *Server) handleSamples(w http.ResponseWriter, r *http.Request) error {
	var req SamplesRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if len(req.IDs) == 0 {
		return errf(http.StatusBadRequest, "samples: empty id list")
	}
	samples, missing, err := s.cfg.DS.SamplesByIDContext(r.Context(), req.IDs, req.Partial)
	if err != nil {
		if !req.Partial {
			// A miss on the strict path is the caller naming an unknown
			// document, not a server fault.
			return errf(http.StatusNotFound, "samples: %v", err)
		}
		return serviceError(err)
	}
	return WriteBody(w, r, SamplesResponse{Samples: FromCodecSlice(samples), Missing: missing})
}

// handleDraw answers the sampling half of a lookup under the caller's
// seed — the first of the router's two lookup rounds (the samples fetch is
// the second).
func (s *Server) handleDraw(w http.ResponseWriter, r *http.Request) error {
	var req DrawRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	samples, err := decodeSamples(req.Samples)
	if err != nil {
		return err
	}
	x, err := fairds.Collate(samples)
	if err != nil {
		return errf(http.StatusBadRequest, "draw: %v", err)
	}
	counts, ids, err := s.cfg.DS.LookupDrawContext(r.Context(), x, req.Seed)
	tensor.Release(x)
	if err != nil {
		return serviceError(err)
	}
	return WriteBody(w, r, DrawResponse{Counts: counts, IDs: ids})
}

// ---------------------------------------------------------------------------
// Model-plane handlers

func (s *Server) handleAddModel(w http.ResponseWriter, r *http.Request) error {
	var req AddModelRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if len(req.State) == 0 {
		return errf(http.StatusBadRequest, "models: empty state blob")
	}
	sd, err := nn.StateDictFromBytes(req.State)
	if err != nil {
		return errf(http.StatusBadRequest, "models: %v", err)
	}
	// The fit key is the server's: whatever the client sent is dropped, and
	// the model is stamped with the fit its PDF can only have come from.
	meta := make(map[string]string, len(req.Meta)+1)
	for k, v := range req.Meta {
		meta[k] = v
	}
	delete(meta, fairms.MetaFit)
	if fit := s.cfg.DS.FitID(); fit != "" {
		meta[fairms.MetaFit] = fit
	}
	if err := s.cfg.Zoo.Add(req.ID, sd, req.PDF, meta); err != nil {
		switch {
		case errors.Is(err, fairms.ErrDuplicateID):
			return errc(http.StatusConflict, CodeConflict, "%v", err)
		case errors.Is(err, fairms.ErrStore):
			return serviceError(err) // the request was fine; the write was not
		}
		// Everything else Add rejects (empty ID, invalid PDF) is a
		// malformed request.
		return errf(http.StatusBadRequest, "%v", err)
	}
	s.zooGen.Add(1) // recommend results computed against the old zoo are stale
	return WriteBody(w, r, ModelInfo{ID: req.ID, K: len(req.PDF), Meta: meta})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) error {
	ids := s.cfg.Zoo.IDs()
	models := make([]ModelInfo, 0, len(ids))
	for _, id := range ids {
		rec, err := s.cfg.Zoo.Get(id)
		if err != nil {
			continue // removed between IDs() and Get()
		}
		models = append(models, ModelInfo{
			ID: rec.ID, K: len(rec.TrainPDF), Meta: rec.Meta, AddedAt: rec.AddedAt,
		})
	}
	return WriteBody(w, r, ModelsResponse{Models: models})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	fit := s.cfg.DS.FitID()
	key := fmt.Sprintf("rec:%d:%s:%s", s.zooGen.Load(), fit, bodyHash(body))
	v, err := s.cache.do(r.Context(), key, func(ctx context.Context) (any, error) {
		var req RecommendRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, errf(http.StatusBadRequest, "recommend: decoding request: %v", err)
		}
		_, sp := obs.StartSpan(ctx, "zoo_rank")
		best, ok, err := s.cfg.Zoo.BestFit(fit, req.PDF)
		sp.End()
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		if !ok {
			return RecommendResponse{OK: false}, nil
		}
		if req.MaxJSD > 0 && best.JSD > req.MaxJSD {
			return RecommendResponse{JSD: best.JSD, OK: false}, nil
		}
		return RecommendResponse{ID: best.Record.ID, JSD: best.JSD, OK: true}, nil
	})
	if err != nil {
		return err
	}
	return WriteBody(w, r, v)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	rec, err := s.cfg.Zoo.Get(id)
	if err != nil {
		return errf(http.StatusNotFound, "%v", err)
	}
	// Encode to memory first: once bytes hit the ResponseWriter the status
	// is committed, and a mid-stream encode failure could no longer be
	// reported as an error response.
	blob, err := rec.State.Bytes()
	if err != nil {
		return errf(http.StatusInternalServerError, "encoding checkpoint %s: %v", id, err)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	// A write failure here means the client went away; the response is
	// already committed, so there is no error body left to send.
	w.Write(blob)
	return nil
}

// ---------------------------------------------------------------------------
// Training-plane handlers

// handleTrainSubmit enqueues a server-side training job. Queue saturation
// surfaces as 429 — training backpressure, distinct from the global
// admission gate — an unfitted clustering model as 409 not_fitted (the job
// could only fail asynchronously on its PDF computation otherwise), and a
// model_id the zoo already holds as the 409 conflict POST /v1/models
// answers (the job could only fail at its register step, after the fit).
func (s *Server) handleTrainSubmit(w http.ResponseWriter, r *http.Request) error {
	var req TrainRequest
	if err := decodeBody(r, &req); err != nil {
		return err
	}
	if s.cfg.DS.K() == 0 {
		return errc(http.StatusConflict, CodeNotFitted, "train: %v", fairds.ErrNotFitted)
	}
	spec := trainer.Spec{
		Dataset:     req.Dataset,
		Model:       req.Model,
		Hidden:      req.Hidden,
		Epochs:      req.Epochs,
		BatchSize:   req.BatchSize,
		LR:          req.LR,
		TargetLoss:  req.TargetLoss,
		Patience:    req.Patience,
		MaxJSD:      req.MaxJSD,
		ValFraction: req.ValFraction,
		Seed:        req.Seed,
		ModelID:     req.ModelID,
		Meta:        req.Meta,
	}
	if len(req.Samples) > 0 {
		samples, err := decodeSamples(req.Samples)
		if err != nil {
			return err
		}
		spec.Samples = samples
	}
	st, err := s.trainer.Submit(spec)
	switch {
	case errors.Is(err, trainer.ErrQueueFull):
		return errf(http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, trainer.ErrShutdown):
		return errf(http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, fairms.ErrDuplicateID):
		return errc(http.StatusConflict, CodeConflict, "%v", err)
	case err != nil:
		return errf(http.StatusBadRequest, "%v", err)
	}
	return WriteBody(w, r, wireTrainJob(st, true))
}

func (s *Server) handleTrainList(w http.ResponseWriter, r *http.Request) error {
	statuses := s.trainer.List()
	resp := TrainListResponse{Jobs: make([]TrainJob, len(statuses))}
	for i, st := range statuses {
		resp.Jobs[i] = wireTrainJob(st, false) // curves only in the detail view
	}
	return WriteBody(w, r, resp)
}

// handleTrainGet serves GET /v1/train/{id}; with wait= it answers once the
// job is terminal, the wait has passed or the client has gone.
func (s *Server) handleTrainGet(w http.ResponseWriter, r *http.Request) error {
	wait, err := TrainWait(r)
	if err != nil {
		return err
	}
	st, err := s.trainer.Wait(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		return errf(http.StatusNotFound, "%v", err)
	}
	return WriteBody(w, r, wireTrainJob(st, true))
}

// handleTrainCancel serves POST /v1/train/{id}:cancel. ServeMux wildcards
// span whole segments, so the route matches POST /v1/train/{anything} and
// the ":cancel" action suffix is peeled off here.
func (s *Server) handleTrainCancel(w http.ResponseWriter, r *http.Request) error {
	id, ok := strings.CutSuffix(r.PathValue("id"), ":cancel")
	if !ok {
		return errf(http.StatusNotFound, "train: POST %s is not an action (want {id}:cancel)", r.URL.Path)
	}
	st, err := s.trainer.Cancel(id)
	if err != nil {
		return errf(http.StatusNotFound, "%v", err)
	}
	return WriteBody(w, r, wireTrainJob(st, true))
}

// wireTrainJob converts a trainer status snapshot to its wire form.
func wireTrainJob(st *trainer.Status, withCurves bool) TrainJob {
	j := TrainJob{
		ID:          st.ID,
		State:       string(st.State),
		Model:       st.Model,
		Dataset:     st.Dataset,
		Samples:     st.Samples,
		Warm:        st.Warm,
		Foundation:  st.Foundation,
		JSD:         st.JSD,
		Epochs:      st.Epochs,
		Converged:   st.Converged,
		ConvergedAt: st.ConvergedAt,
		ModelID:     st.ModelID,
		Error:       st.Err,
		SubmittedAt: st.SubmittedAt,
		StartedAt:   st.StartedAt,
		FinishedAt:  st.FinishedAt,
	}
	if withCurves {
		j.TrainLoss = st.TrainLoss
		j.ValLoss = st.ValLoss
	}
	return j
}

// ---------------------------------------------------------------------------
// Operational handlers

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) error {
	// K and FitID wait only for a fit's publish, never for its k-means run,
	// so liveness answers while a bootstrap fit runs.
	return WriteBody(w, r, HealthResponse{
		Status:  "ok",
		K:       s.cfg.DS.K(),
		Fit:     s.cfg.DS.FitID(),
		Models:  s.cfg.Zoo.Len(),
		Samples: s.cfg.DS.StoreCount(),
	})
}

// handleMetrics serves the Prometheus text exposition: the pipeline's
// families and the server's own (registerMetrics).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	return s.reg.WritePrometheus(w)
}

// ---------------------------------------------------------------------------
// Helpers

// serviceError maps library errors to HTTP status codes: an unfitted
// clustering model is the caller's sequencing problem (the service is up
// but not ready for lookups — 409), samples of another width than the
// service's are a malformed request (400), everything else is internal
// (500).
func serviceError(err error) error {
	var se *StatusError
	if errors.As(err, &se) {
		return err
	}
	if errors.Is(err, fairds.ErrNotFitted) {
		return errc(http.StatusConflict, CodeNotFitted, "%v", err)
	}
	var we *fairds.WidthError
	if errors.As(err, &we) {
		return errf(http.StatusBadRequest, "%v", err)
	}
	return errf(http.StatusInternalServerError, "%v", err)
}

// decodeSamples converts and validates untrusted wire samples. Every
// data-plane handler passes its input through here, so a shape/dtype/
// payload mismatch becomes a 400 instead of a panic deeper in the stack
// (codec.Sample.Floats indexes Data by shape, and Dtype.Size panics on
// unknown dtypes).
func decodeSamples(ws []Sample) ([]*codec.Sample, error) {
	if len(ws) == 0 {
		return nil, errf(http.StatusBadRequest, "empty sample batch")
	}
	out := make([]*codec.Sample, len(ws))
	for i := range ws {
		s, err := DecodeSample(ws[i])
		if err != nil {
			return nil, errf(http.StatusBadRequest, "sample %d: %v", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// DecodeSample converts and validates one untrusted wire sample. The batch
// endpoint calls it per document so one bad sample yields a DocError
// instead of failing the whole request; dmsrouter calls it on every sample
// of an all-or-nothing ingest before scattering any of them.
func DecodeSample(w Sample) (*codec.Sample, error) {
	if d := codec.Dtype(w.Dtype); d < codec.U8 || d > codec.F64 {
		return nil, fmt.Errorf("unknown dtype %d", w.Dtype)
	}
	s := w.ToCodec()
	if s.Elems() <= 0 {
		return nil, fmt.Errorf("shape %v has no elements", s.Shape)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func bodyHash(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}
