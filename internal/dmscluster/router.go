package dmscluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// RouterConfig tunes the router's observability plane; the zero value is
// a working router with tracing retention and SLOs off.
type RouterConfig struct {
	// Logger receives request failures as leveled key=value events (5xx
	// at warn, 4xx at debug); nil silences.
	Logger *obs.Logger
	// SLOs are the per-endpoint objectives evaluated over rolling windows
	// (parse with obs.ParseSLOs). Empty disables the SLO layer.
	SLOs []obs.SLO
	// TraceRing sizes the tail-based trace retention ring behind
	// GET /debug/tracez. Zero or negative disables retention (the route
	// answers 404).
	TraceRing int
	// TraceSlow is the latency threshold above which a request's span
	// tree is retained even when it succeeded cleanly. Zero or negative
	// means only errored and degraded requests are retained.
	TraceSlow time.Duration
}

// Router serves the dmsapi /v1 surface over HTTP on top of a Cluster:
// the standalone routing tier (cmd/dmsrouter) for callers that cannot
// embed the smart client. Handlers are thin — every routing decision
// and merge lives on Cluster, and the request path (tracing, metrics,
// error envelope, SLO scoring, /debug/tracez, the listener) is the
// embedded dmsapi.Pipeline, the same code dmsd runs, so a client cannot
// tell the tiers apart. The router's own addition is a federated
// /metricsz: its membership families (per-node health, the membership
// epoch) with every healthy shard's exposition merged under them.
// X-Dms-Trace propagates through the shard calls, so a sampled client
// sees one contiguous span tree across client, router, and shards.
type Router struct {
	*dmsapi.Pipeline
	cluster *Cluster
}

// NewRouter builds the HTTP tier over an existing cluster client. The
// caller owns the cluster's lifecycle (Start/Close).
func NewRouter(c *Cluster, cfg RouterConfig) *Router {
	return newRouter(c, cfg, 0)
}

// newRouter is NewRouter with the request-body cap exposed (0 = the
// pipeline's 256 MiB default, which is all production uses) so a test can
// cross the cap without streaming a quarter of a gigabyte.
func newRouter(c *Cluster, cfg RouterConfig, maxBodyBytes int64) *Router {
	rt := &Router{
		Pipeline: dmsapi.NewPipeline(dmsapi.PipelineConfig{
			MetricPrefix: "dms_router_",
			RootSpan:     "route",
			MaxBodyBytes: maxBodyBytes,
			SLOs:         cfg.SLOs,
			TraceRing:    cfg.TraceRing,
			TraceSlow:    cfg.TraceSlow,
			Logger:       cfg.Logger,
		}),
		cluster: c,
	}
	rt.registerMetrics()

	rt.Handle("POST "+dmsapi.PathIngest, "data.ingest", 0, dmsapi.JSONHandler(rt.ingest))
	rt.Handle("POST "+dmsapi.PathIngestBatch, "data.ingest_batch", 0, dmsapi.JSONHandler(c.Ingest))
	rt.Handle("POST "+dmsapi.PathCertainty, "data.certainty", 0, dmsapi.JSONHandler(c.Certainty))
	rt.Handle("POST "+dmsapi.PathLookup, "data.lookup", 0, dmsapi.JSONHandler(c.Lookup))
	rt.Handle("POST "+dmsapi.PathNearest, "data.nearest", 0, dmsapi.JSONHandler(c.Nearest))
	rt.Handle("POST "+dmsapi.PathPDF, "data.pdf", 0, dmsapi.JSONHandler(c.PDF))
	rt.Handle("GET "+dmsapi.PathModels, "models.list", 0, rt.handleModels)
	rt.Handle("POST "+dmsapi.PathModels, "models.add", 0, dmsapi.JSONHandler(c.AddModel))
	rt.Handle("POST "+dmsapi.PathRecommend, "models.recommend", 0, dmsapi.JSONHandler(c.Recommend))
	rt.Handle("GET "+dmsapi.PathCheckpoint, "models.checkpoint", 0, rt.handleCheckpoint)
	rt.Handle("POST "+dmsapi.PathTrain, "train.submit", 0, dmsapi.JSONHandler(c.SubmitTrain))
	rt.Handle("GET "+dmsapi.PathTrain, "train.list", 0, rt.handleTrainList)
	rt.Handle("GET "+dmsapi.PathTrainJob, "train.get", dmsapi.ShedExempt, rt.handleTrainGet) // a wait= long-poll holds no admission slot
	rt.Handle("POST "+dmsapi.PathTrainJob, "train.cancel", 0, rt.handleTrainCancel)
	rt.Handle("GET "+dmsapi.PathHealth, "healthz", dmsapi.Meta, rt.handleHealth)
	rt.Handle("GET "+dmsapi.PathMetrics, "metricsz", dmsapi.Meta, rt.handleMetrics)
	return rt
}

func (rt *Router) registerMetrics() {
	r := rt.Registry()
	r.GaugeFunc("dms_router_shards", "configured shard count",
		func() float64 { return float64(len(rt.cluster.nodes)) })
	r.GaugeFunc("dms_router_healthy_shards", "shards currently admitted by health probing",
		func() float64 { return float64(len(rt.cluster.healthyNodes())) })
	r.CounterFunc("dms_router_membership_epoch", "membership health transitions since start",
		rt.cluster.epoch.Load)
	r.CounterFunc("dms_router_degraded_responses_total", "responses merged without every shard",
		rt.cluster.degraded.Load)
	r.CounterFunc("dms_router_reroutes_total", "ingest sub-batches rerouted off their hash owner",
		rt.cluster.reroutes.Load)
	// Per-node health is read at scrape time from the atomics the probe
	// loop and the serving paths already keep.
	healthy := r.GaugeVec("dms_router_node_healthy", "1 while the shard is admitted by health probing", "node")
	fails := r.GaugeVec("dms_router_node_consecutive_fails", "the shard's current run of failed probes and calls", "node")
	ejections := r.CounterVec("dms_router_node_ejections_total", "times the shard was ejected", "node")
	for _, n := range rt.cluster.nodes {
		healthy.Func(n.addr, func() float64 {
			if n.healthy.Load() {
				return 1
			}
			return 0
		})
		fails.Func(n.addr, func() float64 { return float64(n.fails.Load()) })
		ejections.Func(n.addr, n.ejections.Load)
	}
}

// ingest serves the non-batch endpoint, which is all-or-nothing on a
// single node; the router preserves that contract over the batch-shaped
// scatter.
func (rt *Router) ingest(ctx context.Context, req dmsapi.IngestRequest) (dmsapi.IngestResponse, error) {
	resp, err := rt.cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: req.Dataset, Samples: req.Samples})
	if err != nil {
		return dmsapi.IngestResponse{}, err
	}
	if len(resp.Errors) > 0 {
		return dmsapi.IngestResponse{}, &dmsapi.StatusError{
			Code: http.StatusBadRequest, ErrCode: dmsapi.CodeBadRequest,
			Message: resp.Errors[0].Error,
		}
	}
	return dmsapi.IngestResponse{IDs: resp.IDs}, nil
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) error {
	resp, err := rt.cluster.Models(r.Context())
	if err != nil {
		return err
	}
	return dmsapi.WriteBody(w, r, resp)
}

func (rt *Router) handleCheckpoint(w http.ResponseWriter, r *http.Request) error {
	blob, err := rt.cluster.Checkpoint(r.Context(), r.PathValue("id"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, err = w.Write(blob)
	return err
}

func (rt *Router) handleTrainList(w http.ResponseWriter, r *http.Request) error {
	resp, err := rt.cluster.TrainJobs(r.Context())
	if err != nil {
		return err
	}
	return dmsapi.WriteBody(w, r, resp)
}

func (rt *Router) handleTrainGet(w http.ResponseWriter, r *http.Request) error {
	wait, err := dmsapi.TrainWait(r)
	if err != nil {
		//lint:ignore errboundary TrainWait's error is already the 400 *StatusError dmsd answers
		return err
	}
	job, err := rt.cluster.TrainJob(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		return err
	}
	return dmsapi.WriteBody(w, r, job)
}

// handleTrainCancel serves POST /v1/train/{id}:cancel. Like the dmsapi
// server, the wildcard spans the whole segment and the ":cancel" action
// suffix is peeled off here.
func (rt *Router) handleTrainCancel(w http.ResponseWriter, r *http.Request) error {
	id, ok := strings.CutSuffix(r.PathValue("id"), ":cancel")
	if !ok {
		return &dmsapi.StatusError{
			Code: http.StatusNotFound, ErrCode: dmsapi.CodeNotFound,
			Message: fmt.Sprintf("train: POST %s is not an action (want {id}:cancel)", r.URL.Path),
		}
	}
	job, err := rt.cluster.CancelTrain(r.Context(), id)
	if err != nil {
		return err
	}
	return dmsapi.WriteBody(w, r, job)
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) error {
	resp, err := rt.cluster.Health(r.Context())
	if err != nil {
		return err
	}
	return dmsapi.WriteBody(w, r, resp)
}

// handleMetrics serves the federated exposition: the router's own
// dms_router_*/dms_slo_* families first, then every healthy shard's
// families relabeled with node=<addr>, then the dms_fleet_* aggregates —
// one scrape point for the whole cluster. Shard and fleet family names
// never collide with the router's own (dms_* vs dms_router_*), so the
// concatenation stays a valid exposition.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	rt.RefreshSLO()
	var b strings.Builder
	if err := rt.Registry().WritePrometheus(&b); err != nil {
		// obs surfaces report ErrDisabled for switched-off subsystems;
		// map it to 404 at the boundary like dmsd does.
		if errors.Is(err, obs.ErrDisabled) {
			return &dmsapi.StatusError{Code: http.StatusNotFound, ErrCode: dmsapi.CodeNotFound, Message: err.Error()}
		}
		return &dmsapi.StatusError{Code: http.StatusInternalServerError, ErrCode: dmsapi.CodeInternal, Message: "metrics export: " + err.Error()}
	}
	fleet := obs.Federate(rt.cluster.ScrapeFleet(r.Context()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	_, err := w.Write(obs.RenderExposition(fleet))
	return err
}
