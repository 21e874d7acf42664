package dmsapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/stats"
)

// Client is a typed HTTP client for a dmsapi.Server (or a dmsrouter
// fronting many of them). It reuses pooled keep-alive connections (many
// requests share a handful of TCP streams, the docstore client-pool idea
// applied to HTTP) and retries requests that failed at the transport
// level — connection refused/reset, broken keep-alive — with linear
// backoff. HTTP-level errors (4xx/5xx) are never retried: the server
// answered, the answer was no. Note the retry semantics for
// Ingest/AddModel: a response lost after the server committed the write
// can surface a duplicate-side effect on retry; the server's duplicate-ID
// rejection on AddModel makes that visible rather than silent. Safe for
// concurrent use.
type Client struct {
	base    string // "http://host:port"
	hc      *http.Client
	retries int
	backoff time.Duration
}

// NewClient builds a client for the server at addr ("host:port"),
// applying opts over the defaults (2 retries, 50ms backoff, 30s timeout,
// 32-connection pool), and probes /healthz so misconfiguration fails
// fast (disable with WithoutPing).
func NewClient(addr string, opts ...Option) (*Client, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{
		base:    "http://" + addr,
		retries: o.retries,
		backoff: o.backoff,
		hc: &http.Client{
			Timeout: o.timeout,
			Transport: &http.Transport{
				MaxIdleConns:        o.poolSize,
				MaxIdleConnsPerHost: o.poolSize,
				IdleConnTimeout:     90 * time.Second,
				// net/http copies a body larger than the write buffer to
				// the socket through a fresh buffer of up to 32 KiB per
				// request. 64 KiB holds a 64-sample 11×11 body, the size
				// of a nearest or lookup read and of its shard scatter.
				WriteBufferSize: 64 << 10,
			},
		},
	}
	if o.ping {
		if err := c.Ping(); err != nil {
			return nil, fmt.Errorf("dmsapi: dial %s: %w", addr, err)
		}
	}
	return c, nil
}

// Ping verifies the server answers /healthz.
func (c *Client) Ping() error {
	_, err := c.Health()
	return err
}

// Health fetches the server's health summary.
func (c *Client) Health() (HealthResponse, error) {
	var out HealthResponse
	err := c.getJSON(PathHealth, &out)
	return out, err
}

// Close releases idle keep-alive connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// ---------------------------------------------------------------------------
// Data plane

// Ingest stores labeled samples under a dataset tag, returning document IDs.
func (c *Client) Ingest(dataset string, samples []*codec.Sample) ([]string, error) {
	var out IngestResponse
	err := c.postJSON(PathIngest, IngestRequest{Dataset: dataset, Samples: FromCodecSlice(samples)}, &out)
	return out.IDs, err
}

// IngestBatch stores labeled samples through the high-throughput batch
// endpoint. Per-document failures come back in the response's Errors array
// rather than failing the call; the returned error covers only
// request-level problems (transport failure after retries, 4xx/5xx).
func (c *Client) IngestBatch(dataset string, samples []*codec.Sample) (IngestBatchResponse, error) {
	var out IngestBatchResponse
	err := c.postJSON(PathIngestBatch, IngestBatchRequest{Dataset: dataset, Samples: FromCodecSlice(samples)}, &out)
	return out, err
}

// Certainty returns the fuzzy-clustering certainty of a dataset at the
// given membership threshold (<= 0 uses fairds.DefaultMembershipCut).
func (c *Client) Certainty(samples []*codec.Sample, threshold float64) (float64, error) {
	var out CertaintyResponse
	err := c.postJSON(PathCertainty, CertaintyRequest{Samples: FromCodecSlice(samples), Threshold: threshold}, &out)
	return out.Certainty, err
}

// Lookup retrieves PDF-matched labeled historical samples for the input.
func (c *Client) Lookup(samples []*codec.Sample) ([]*codec.Sample, error) {
	var out LookupResponse
	if err := c.postJSON(PathLookup, LookupRequest{Samples: FromCodecSlice(samples)}, &out); err != nil {
		return nil, err
	}
	return ToCodecSlice(out.Samples), nil
}

// Nearest returns the nearest labeled historical document per input sample.
func (c *Client) Nearest(samples []*codec.Sample, distinct bool) ([]Match, error) {
	var out NearestResponse
	err := c.postJSON(PathNearest, NearestRequest{Samples: FromCodecSlice(samples), Distinct: distinct}, &out)
	return out.Matches, err
}

// Fit explicitly fits the server's clustering model with k clusters on
// the given samples (a no-op on an already-fitted service; the response
// reports which). The cluster router bootstraps every shard through this
// so the replicated models agree.
func (c *Client) Fit(ctx context.Context, samples []*codec.Sample, k int) (FitResponse, error) {
	var out FitResponse
	err := c.DoJSON(ctx, "POST", PathFit, FitRequest{Samples: FromCodecSlice(samples), K: k}, &out)
	return out, err
}

// SamplesByID fetches stored samples by document ID. With partial,
// unknown IDs come back in the missing list instead of failing the call.
func (c *Client) SamplesByID(ctx context.Context, ids []string, partial bool) ([]*codec.Sample, []string, error) {
	var out SamplesResponse
	if err := c.DoJSON(ctx, "POST", PathSamples, SamplesRequest{IDs: ids, Partial: partial}, &out); err != nil {
		return nil, nil, err
	}
	return ToCodecSlice(out.Samples), out.Missing, nil
}

// PDF computes the dataset's cluster probability distribution.
func (c *Client) PDF(samples []*codec.Sample) (stats.PDF, error) {
	var out PDFResponse
	if err := c.postJSON(PathPDF, PDFRequest{Samples: FromCodecSlice(samples)}, &out); err != nil {
		return nil, err
	}
	return stats.PDF(out.PDF), nil
}

// ---------------------------------------------------------------------------
// Model plane

// AddModel registers a checkpoint with the PDF of its training data.
func (c *Client) AddModel(id string, state *nn.StateDict, pdf stats.PDF, meta map[string]string) error {
	blob, err := state.Bytes()
	if err != nil {
		return err
	}
	var out ModelInfo
	return c.postJSON(PathModels, AddModelRequest{ID: id, PDF: pdf, Meta: meta, State: blob}, &out)
}

// Models lists zoo entries in insertion order (no weights).
func (c *Client) Models() ([]ModelInfo, error) {
	var out ModelsResponse
	err := c.getJSON(PathModels, &out)
	return out.Models, err
}

// Recommend asks for the best foundation model for a dataset PDF. With
// maxJSD > 0 the paper's distance threshold applies; OK=false means train
// from scratch.
func (c *Client) Recommend(pdf stats.PDF, maxJSD float64) (RecommendResponse, error) {
	var out RecommendResponse
	err := c.postJSON(PathRecommend, RecommendRequest{PDF: pdf, MaxJSD: maxJSD}, &out)
	return out, err
}

// Checkpoint downloads and decodes a model's weights.
func (c *Client) Checkpoint(id string) (*nn.StateDict, error) {
	body, err := c.DoRaw(context.Background(), "GET", strings.Replace(PathCheckpoint, "{id}", url.PathEscape(id), 1), nil)
	if err != nil {
		return nil, err
	}
	return nn.StateDictFromBytes(body)
}

// ---------------------------------------------------------------------------
// Training plane

// SubmitTrain submits an asynchronous server-side training job and
// returns its initial status. A saturated job queue surfaces as a
// StatusError with code 429.
func (c *Client) SubmitTrain(req TrainRequest) (TrainJob, error) {
	var out TrainJob
	err := c.postJSON(PathTrain, req, &out)
	return out, err
}

// TrainJobs lists every training job in submission order (without loss
// curves; fetch a single job for those).
func (c *Client) TrainJobs() ([]TrainJob, error) {
	var out TrainListResponse
	err := c.getJSON(PathTrain, &out)
	return out.Jobs, err
}

// TrainJob fetches one job's full status, including live loss curves.
func (c *Client) TrainJob(id string) (TrainJob, error) {
	var out TrainJob
	err := c.getJSON(TrainJobPath(id, 0), &out)
	return out, err
}

// CancelTrain requests cancellation of a job and returns its status
// (already-terminal jobs come back unchanged).
func (c *Client) CancelTrain(id string) (TrainJob, error) {
	var out TrainJob
	err := c.postJSON(strings.Replace(PathTrainCancel, "{id}", url.PathEscape(id), 1), struct{}{}, &out)
	return out, err
}

// WaitTrain waits until a job reaches a terminal state or timeout elapses.
// It long-polls GET /v1/train/{id}?wait= with the time that remains (at
// most MaxTrainWait, and half the client's request timeout, per request),
// so the answer comes as the job finishes. A 429 means the server shed the
// status read under load, not that the job failed: the wait retries poll
// later (poll <= 0 uses 100ms) until the deadline.
func (c *Client) WaitTrain(id string, poll, timeout time.Duration) (TrainJob, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	deadline := time.Now().Add(timeout)
	for {
		wait := min(time.Until(deadline), MaxTrainWait)
		if c.hc.Timeout > 0 {
			wait = min(wait, c.hc.Timeout/2)
		}
		var job TrainJob
		err := c.getJSON(TrainJobPath(id, wait), &job)
		if err != nil {
			var se *StatusError
			if errors.As(err, &se) && se.Code == http.StatusTooManyRequests && time.Now().Before(deadline) {
				time.Sleep(poll)
				continue
			}
			return job, err
		}
		if job.Terminal() {
			return job, nil
		}
		if !time.Now().Before(deadline) {
			return job, fmt.Errorf("dmsapi: train job %s still %s after %v", id, job.State, timeout)
		}
	}
}

// RapidTrain runs the paper's Fig. 5 rapid-train action server-side:
// submit the job (the daemon computes the PDF, picks the closest zoo
// checkpoint under the JSD threshold, and warm-starts — or cold-starts —
// training), wait for it to finish, and download the resulting
// checkpoint. The returned TrainJob carries the warm/cold decision,
// foundation lineage, and loss curves.
func (c *Client) RapidTrain(req TrainRequest, timeout time.Duration) (TrainJob, *nn.StateDict, error) {
	job, err := c.SubmitTrain(req)
	if err != nil {
		return job, nil, err
	}
	job, err = c.WaitTrain(job.ID, 0, timeout)
	if err != nil {
		return job, nil, err
	}
	if job.State != "done" {
		return job, nil, fmt.Errorf("dmsapi: train job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	sd, err := c.Checkpoint(job.ModelID)
	if err != nil {
		return job, nil, fmt.Errorf("dmsapi: downloading trained checkpoint %s: %w", job.ModelID, err)
	}
	return job, sd, nil
}

// ---------------------------------------------------------------------------
// Transport

// DoJSON performs one typed exchange (encode in → request → decode the
// 2xx body into out; nil in sends no body, nil out discards the body). The
// name is historical: a value that carries samples or matches travels
// frame-encoded (see ContentTypeFrames) — in when it has such a field, the
// response when out has one and the server honours the Accept header —
// and everything else as JSON. It is the context-aware exported
// transport the cluster tier is built on: when ctx carries a sampled obs
// trace, the exchange joins it — the round-trip span opens under the caller's
// current span, the trace ID rides the request header, and the server's
// trailer span tree is attached back into the caller's trace — so client →
// router → shard produces one contiguous tree. Non-2xx responses decode
// into a *StatusError (see the package sentinels).
func (c *Client) DoJSON(ctx context.Context, method, path string, in, out any) error {
	body, err := EncodeBody(in)
	if err != nil {
		return err
	}
	return c.DoBody(ctx, method, path, body, out)
}

// Body is a request body encoded once, for sending any number of times: a
// scatter round encodes its request and hands every shard the same bytes.
// A nil Data sends no body.
type Body struct {
	ContentType string
	Data        []byte
}

// EncodeBody encodes in the way DoJSON sends it (nil in: the zero Body).
func EncodeBody(in any) (Body, error) {
	if in == nil {
		return Body{}, nil
	}
	data, contentType, err := marshalBody(in)
	if err != nil {
		return Body{}, fmt.Errorf("dmsapi: encoding request: %w", err)
	}
	return Body{ContentType: contentType, Data: data}, nil
}

// DoBody is DoJSON with the request body already encoded.
func (c *Client) DoBody(ctx context.Context, method, path string, body Body, out any) error {
	accept := ""
	if carriesFrames(reflect.TypeOf(out)) {
		accept = ContentTypeFrames
	}
	data, contentType, err := c.doRetry(ctx, method, path, body, accept)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if isFrames(contentType) {
		return decodeFrames(data, out)
	}
	// A response is the one JSON value a Server encoded, so Unmarshal reads
	// it: 10–30% faster than unmarshalBody's Decoder on bodies of 1 to 64
	// matches, the most on the smallest.
	return json.Unmarshal(data, out)
}

// DoRaw is DoJSON without body codecs: it sends payload verbatim as JSON
// (nil for no body) and returns the raw 2xx response body.
func (c *Client) DoRaw(ctx context.Context, method, path string, payload []byte) ([]byte, error) {
	data, _, err := c.doRetry(ctx, method, path, Body{ContentType: contentTypeJSON, Data: payload}, "")
	return data, err
}

func (c *Client) postJSON(path string, in, out any) error {
	return c.DoJSON(context.Background(), "POST", path, in, out)
}

func (c *Client) getJSON(path string, out any) error {
	return c.DoJSON(context.Background(), "GET", path, nil, out)
}

// doRetry performs one HTTP exchange, retrying transport-level failures
// with linear backoff. The request body is a byte slice (not a stream)
// precisely so each retry can resend it from the start. It returns the
// 2xx response body — a fresh buffer each time, which decoded samples may
// alias — and its Content-Type.
//
// When ctx carries a trace (a router handling a traced request, or any
// caller inside an obs span), round-trip spans open in that trace, and a
// sampled trace additionally sends the trace header and grafts the
// server's trailer tree back in.
func (c *Client) doRetry(ctx context.Context, method, path string, body Body, accept string) ([]byte, string, error) {
	tr := obs.FromContext(ctx)
	sampled := tr.Sampled()

	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return nil, "", ctx.Err()
			case <-time.After(time.Duration(attempt) * c.backoff):
			}
		}
		var payload io.Reader
		if body.Data != nil {
			payload = bytes.NewReader(body.Data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, payload)
		if err != nil {
			return nil, "", err
		}
		if body.Data != nil {
			req.Header.Set("Content-Type", body.ContentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if sampled {
			req.Header.Set(obs.TraceHeader, obs.FormatTraceHeader(tr.ID(), true))
		}
		_, att := obs.StartSpan(ctx, "http_roundtrip")
		resp, err := c.hc.Do(req)
		if err != nil {
			att.End()
			lastErr = err // transport-level: connection refused/reset, timeout
			continue
		}
		data, err := readSized(resp.Body, resp.ContentLength)
		resp.Body.Close()
		att.End()
		if err != nil {
			lastErr = err // response truncated mid-stream
			continue
		}
		// Trailers are populated only once the body is fully consumed; a
		// missing or malformed trailer (fixed-length responses drop it)
		// just means no server subtree. The trailer is decoded only if
		// the trace is dumped.
		if sampled {
			tr.AttachRemote(att.Index(), resp.Trailer.Get(obs.SpanHeader))
		}
		if resp.StatusCode/100 != 2 {
			return nil, "", statusError(resp.StatusCode, data)
		}
		return data, resp.Header.Get("Content-Type"), nil
	}
	return nil, "", fmt.Errorf("dmsapi: %s %s failed after %d attempts: %w", method, path, c.retries+1, lastErr)
}
