// Package dmsapi exposes fairDMS's two services — the FAIR Data Service
// (internal/fairds) and the FAIR Model Service (internal/fairms) — over
// HTTP, the deployment shape the paper assumes: experimental-facility
// workflows call both services across the network to fetch PDF-matched
// labeled data and the closest prior checkpoint (Ali et al., Cluster 2022;
// Ravi et al., 2022). The package ships three pieces:
//
//   - typed request/response structs (this file) shared by client and
//     server, so the wire contract lives in one place;
//   - Server, a production-shaped HTTP front end with bounded in-flight
//     concurrency (429 shedding), singleflight coalescing plus a small LRU
//     for hot recommend/PDF queries, request/latency/cache counters on
//     /metricsz, and graceful shutdown;
//   - Client, a typed Go client with connection reuse and
//     retry-on-connection-error.
//
// Checkpoints travel as gob-encoded nn.StateDict blobs (an octet-stream
// body on /v1/models/{id}/checkpoint). Everything else is JSON to any
// caller; between Client, dmsd and dmsrouter the bodies that carry samples
// travel frame-encoded instead (frames.go), chosen per request by
// Content-Type and Accept.
package dmsapi

import (
	"net/http"
	"net/url"
	"strings"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/obs"
	"fairdms/internal/trainer"
)

// API paths served by Server and called by Client.
const (
	PathIngest      = "/v1/data/ingest"
	PathIngestBatch = "/v1/data/ingest:batch"
	PathCertainty   = "/v1/data/certainty"
	PathLookup      = "/v1/data/lookup"
	PathNearest     = "/v1/data/nearest"
	PathPDF         = "/v1/data/pdf"
	PathFit         = "/v1/data/clusters:fit"
	PathSamples     = "/v1/data/samples"
	PathDraw        = "/v1/data/draw"
	PathModels      = "/v1/models"
	PathRecommend   = "/v1/models/recommend"
	PathCheckpoint  = "/v1/models/{id}/checkpoint"
	PathTrain       = "/v1/train"
	PathTrainJob    = "/v1/train/{id}"
	PathTrainCancel = "/v1/train/{id}:cancel"
	PathHealth      = "/healthz"
	PathMetrics     = "/metricsz"
	PathTraces      = "/debug/tracez"
)

// Sample is the wire form of a codec.Sample. Data holds the little-endian
// element payload: base64 in a JSON body (encoding/json's []byte form),
// the bytes themselves in a framed one — where, once decoded, it is a view
// of the body buffer rather than a copy.
type Sample struct {
	Shape []int     `json:"shape"`
	Dtype uint8     `json:"dtype"`
	Data  []byte    `json:"data"`
	Label []float64 `json:"label,omitempty"`
}

// FromCodec converts a codec.Sample to its wire form (sharing backing
// arrays; the caller must not mutate the original until the wire value is
// serialized).
func FromCodec(s *codec.Sample) Sample {
	return Sample{Shape: s.Shape, Dtype: uint8(s.Dtype), Data: s.Data, Label: s.Label}
}

// ToCodec converts a wire sample back to a codec.Sample.
func (s Sample) ToCodec() *codec.Sample {
	return &codec.Sample{Shape: s.Shape, Dtype: codec.Dtype(s.Dtype), Data: s.Data, Label: s.Label}
}

// FromCodecSlice converts a batch of codec samples to wire form.
func FromCodecSlice(ss []*codec.Sample) []Sample {
	out := make([]Sample, len(ss))
	for i, s := range ss {
		out[i] = FromCodec(s)
	}
	return out
}

// ToCodecSlice converts a batch of wire samples to codec form.
func ToCodecSlice(ss []Sample) []*codec.Sample {
	out := make([]*codec.Sample, len(ss))
	for i := range ss {
		out[i] = ss[i].ToCodec()
	}
	return out
}

// IngestRequest is the body of POST /v1/data/ingest: labeled samples to
// embed, cluster-assign, and store under a dataset tag.
type IngestRequest struct {
	Dataset string   `json:"dataset"`
	Samples []Sample `json:"samples"`
}

// IngestResponse returns the stored document IDs, in input order.
type IngestResponse struct {
	IDs []string `json:"ids"`
}

// IngestBatchRequest is the body of POST /v1/data/ingest:batch — the
// high-throughput ingest path. Unlike PathIngest, a malformed document
// fails only itself: the response carries a per-document error array and
// the rest of the batch commits.
type IngestBatchRequest struct {
	Dataset string   `json:"dataset"`
	Samples []Sample `json:"samples"`
}

// DocError reports one document of a batch that was rejected, by its
// position in the request.
type DocError struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// IngestBatchResponse returns per-document outcomes: IDs is aligned with
// the request batch ("" where the document failed), Errors lists the
// failures in ascending index order, and Inserted counts the commits.
type IngestBatchResponse struct {
	IDs      []string   `json:"ids"`
	Errors   []DocError `json:"errors,omitempty"`
	Inserted int        `json:"inserted"`
}

// CertaintyRequest is the body of POST /v1/data/certainty: the §III-I
// fuzzy-clustering certainty of a dataset at a membership threshold.
type CertaintyRequest struct {
	Samples   []Sample `json:"samples"`
	Threshold float64  `json:"threshold"`
}

// CertaintyResponse carries the certainty in [0, 1]. Degraded is set only
// by a cluster router: the value was computed without every shard's
// answer (the clustering model is replicated, so the value itself is
// still exact — the flag records reduced confirmation).
type CertaintyResponse struct {
	Certainty float64 `json:"certainty"`
	Degraded  bool    `json:"degraded,omitempty"`
}

// LookupRequest is the body of POST /v1/data/lookup: unlabeled samples for
// which PDF-matched labeled historical data should be retrieved.
type LookupRequest struct {
	Samples []Sample `json:"samples"`
}

// LookupResponse returns the retrieved labeled samples. Degraded is set
// only by a cluster router when one or more shards could not contribute
// candidates — the result is drawn from the surviving partitions.
type LookupResponse struct {
	Samples  []Sample `json:"samples"`
	Degraded bool     `json:"degraded,omitempty"`
}

// NearestRequest is the body of POST /v1/data/nearest: per-sample
// nearest-labeled-neighbor matching. With Distinct, each historical
// document is matched at most once (greedy, in input order). Exclude
// lists document IDs that must not be matched — the wire form of the
// in-process exclusion predicate, and what lets a cluster router resolve
// distinct matches across shards iteratively.
type NearestRequest struct {
	Samples  []Sample `json:"samples"`
	Distinct bool     `json:"distinct,omitempty"`
	Exclude  []string `json:"exclude,omitempty"`
}

// Match is one nearest-neighbor result. Found is false when the sample's
// cluster holds no eligible documents (Dist is meaningless then; the
// in-process API's +Inf does not survive JSON).
type Match struct {
	DocID string  `json:"doc_id,omitempty"`
	Dist  float64 `json:"dist"`
	Found bool    `json:"found"`
}

// NearestResponse returns one match per input sample, in order. Degraded
// is set only by a cluster router when a shard's candidates were missing
// from the merge — matches are then minima over the surviving shards.
type NearestResponse struct {
	Matches  []Match `json:"matches"`
	Degraded bool    `json:"degraded,omitempty"`
}

// PDFRequest is the body of POST /v1/data/pdf: compute the cluster
// probability distribution of a dataset — the signature fairMS indexes
// models by.
type PDFRequest struct {
	Samples []Sample `json:"samples"`
}

// PDFResponse carries the dataset PDF over the service's K clusters.
// Degraded mirrors CertaintyResponse.Degraded.
type PDFResponse struct {
	PDF      []float64 `json:"pdf"`
	K        int       `json:"k"`
	Degraded bool      `json:"degraded,omitempty"`
}

// FitRequest is the body of POST /v1/data/clusters:fit: explicitly fit
// the clustering model with K clusters on the given samples. A cluster
// router uses it to fit every shard on the same bootstrap batch, so the
// replicated models agree bit-for-bit (all shards sharing a seed).
// Fitting an already-fitted service is a no-op.
type FitRequest struct {
	Samples []Sample `json:"samples"`
	K       int      `json:"k"`
}

// FitResponse reports the service's cluster count after the call. Fitted
// is true when this request performed the fit (false: it was a no-op on
// an already-fitted service).
type FitResponse struct {
	K      int  `json:"k"`
	Fitted bool `json:"fitted"`
}

// SamplesRequest is the body of POST /v1/data/samples: fetch stored
// samples by document ID. With Partial, unknown IDs are reported in the
// response instead of failing the call.
type SamplesRequest struct {
	IDs     []string `json:"ids"`
	Partial bool     `json:"partial,omitempty"`
}

// SamplesResponse returns the fetched samples aligned with the request
// IDs that resolved (request order, misses skipped); Missing lists the
// IDs that did not resolve (Partial mode only).
type SamplesResponse struct {
	Samples []Sample `json:"samples"`
	Missing []string `json:"missing,omitempty"`
}

// DrawRequest is the body of POST /v1/data/draw: the sampling half of a
// lookup over Samples, drawn under the caller's seed. A cluster router
// sends every shard the same request, so the shards' answers are parts of
// one ranking (docstore.DrawRank under Seed + cluster).
type DrawRequest struct {
	Samples []Sample `json:"samples"`
	Seed    int64    `json:"seed"`
}

// DrawResponse returns the per-cluster counts the lookup apportions — a
// function of the replicated clustering model, so every agreeing shard
// reports the same — and, per cluster, this store's at most Counts[k]
// lowest-ranked document IDs, sorted (null for an unoccupied cluster).
type DrawResponse struct {
	Counts []int      `json:"counts"`
	IDs    [][]string `json:"ids"`
}

// AddModelRequest is the body of POST /v1/models: register a checkpoint
// under ID with the PDF of its training data. State is a gob-encoded
// nn.StateDict (nn.StateDict.Bytes).
type AddModelRequest struct {
	ID    string            `json:"id"`
	PDF   []float64         `json:"pdf"`
	Meta  map[string]string `json:"meta,omitempty"`
	State []byte            `json:"state"`
}

// ModelInfo summarizes one zoo entry (no weights).
type ModelInfo struct {
	ID      string            `json:"id"`
	K       int               `json:"k"` // cluster count of the training PDF
	Meta    map[string]string `json:"meta,omitempty"`
	AddedAt time.Time         `json:"added_at"`
}

// ModelsResponse is the body of GET /v1/models: zoo entries in insertion
// order.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// RecommendRequest is the body of POST /v1/models/recommend. MaxJSD > 0
// applies the paper's distance threshold: a best model farther than MaxJSD
// yields OK=false (train from scratch). MaxJSD == 0 means no threshold.
type RecommendRequest struct {
	PDF    []float64 `json:"pdf"`
	MaxJSD float64   `json:"max_jsd,omitempty"`
}

// RecommendResponse names the best foundation model and its divergence.
// OK is false when the zoo holds no compatible model or the best one is
// beyond MaxJSD. Degraded is set only by a cluster router when not every
// zoo replica answered (the best model of the survivors is returned).
type RecommendResponse struct {
	ID       string  `json:"id,omitempty"`
	JSD      float64 `json:"jsd"`
	OK       bool    `json:"ok"`
	Degraded bool    `json:"degraded,omitempty"`
}

// TrainRequest is the body of POST /v1/train: submit an asynchronous
// server-side training job (the paper's rapid-train action run inside the
// daemon). Exactly one data source is used: inline Samples win over a
// Dataset tag naming already-ingested samples. Zero values pick the
// trainer's defaults; MaxJSD < 0 forces a cold start.
type TrainRequest struct {
	Dataset     string            `json:"dataset,omitempty"`
	Samples     []Sample          `json:"samples,omitempty"`
	Model       string            `json:"model,omitempty"` // "braggnn" (default) or "mlp"
	Hidden      int               `json:"hidden,omitempty"`
	Epochs      int               `json:"epochs,omitempty"`
	BatchSize   int               `json:"batch_size,omitempty"`
	LR          float64           `json:"lr,omitempty"`
	TargetLoss  float64           `json:"target_loss,omitempty"`
	Patience    int               `json:"patience,omitempty"`
	MaxJSD      float64           `json:"max_jsd,omitempty"`
	ValFraction float64           `json:"val_fraction,omitempty"`
	Seed        int64             `json:"seed,omitempty"`
	ModelID     string            `json:"model_id,omitempty"`
	Meta        map[string]string `json:"meta,omitempty"`
}

// TrainJob is the wire form of a training job's status: the body of the
// submit and cancel responses, GET /v1/train/{id} (with loss curves), and
// the list entries of GET /v1/train (curves omitted to bound the payload).
type TrainJob struct {
	ID      string `json:"id"`
	State   string `json:"state"` // queued | running | done | failed | canceled
	Model   string `json:"model"`
	Dataset string `json:"dataset,omitempty"`
	Samples int    `json:"samples"`

	Warm       bool    `json:"warm"`
	Foundation string  `json:"foundation,omitempty"`
	JSD        float64 `json:"jsd"`

	Epochs      int       `json:"epochs"`
	Converged   bool      `json:"converged"`
	ConvergedAt int       `json:"converged_at,omitempty"`
	TrainLoss   []float64 `json:"train_loss,omitempty"`
	ValLoss     []float64 `json:"val_loss,omitempty"`

	ModelID string `json:"model_id,omitempty"`
	Error   string `json:"error,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// Terminal reports whether the job has reached an end state (delegating
// to the trainer's state machine, the source of truth for state names).
func (j *TrainJob) Terminal() bool {
	return trainer.State(j.State).Terminal()
}

// TrainListResponse is the body of GET /v1/train: every job in submission
// order, loss curves omitted.
type TrainListResponse struct {
	Jobs []TrainJob `json:"jobs"`
}

// MaxTrainWait caps the wait= long-poll of GET /v1/train/{id}.
const MaxTrainWait = 10 * time.Second

// TrainJobPath is the GET /v1/train/{id} path of a job; a wait of a
// millisecond or more adds the wait= long-poll: the server answers once the
// job is terminal or wait has passed, whichever is first.
func TrainJobPath(id string, wait time.Duration) string {
	path := strings.Replace(PathTrainJob, "{id}", url.PathEscape(id), 1)
	if wait = wait.Round(time.Millisecond); wait > 0 {
		path += "?wait=" + url.QueryEscape(wait.String())
	}
	return path
}

// TrainWait reads the wait= query parameter of GET /v1/train/{id}, a Go
// duration such as 250ms, capped at MaxTrainWait; without one it is zero.
// A malformed or negative one is a 400.
func TrainWait(r *http.Request) (time.Duration, error) {
	q := r.URL.Query().Get("wait")
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil || d < 0 {
		return 0, errf(http.StatusBadRequest, "train: wait=%q is not a duration >= 0", q)
	}
	return min(d, MaxTrainWait), nil
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status string `json:"status"`
	K      int    `json:"k"` // fitted cluster count (0 = awaiting bootstrap)
	// Fit is the id of the fitted clustering model (fairds.Service.FitID):
	// empty while unfitted, equal on two processes exactly when they serve
	// the same centroids.
	Fit     string `json:"fit"`
	Models  int    `json:"models"`  // zoo entries
	Samples int    `json:"samples"` // labeled samples in the data store
}

// TracezResponse is the body of GET /debug/tracez on both tiers: the
// tail-retained span trees matching the query, newest first. 404 when the
// tier runs with retention off.
type TracezResponse struct {
	Total  int64            `json:"total_retained"` // kept since start, evicted ones included
	Traces []obs.TraceEntry `json:"traces"`
}
