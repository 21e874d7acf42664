package dmsapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/obs"
)

// defaultMaxBodyBytes caps request bodies on every tier: generous for
// sample batches, blocks runaway bodies.
const defaultMaxBodyBytes = 256 << 20

// PipelineConfig is everything that differs between the serving tiers'
// request paths, as data: dmsd and dmsrouter run the same Pipeline code
// and differ only in these values and in the handlers they register.
type PipelineConfig struct {
	// MetricPrefix starts every family the pipeline registers ("dms_" on
	// dmsd, "dms_router_" on the router) so a federated scrape never sees
	// two tiers under one name.
	MetricPrefix string
	// RootSpan names the span wrapping each traced request ("request" on
	// dmsd, "route" on the router), which is how a joined trace tells the
	// tiers apart.
	RootSpan string
	// MaxBodyBytes caps request-body size (413 beyond it). Zero means
	// defaultMaxBodyBytes; negative means unlimited.
	MaxBodyBytes int64
	// MaxInFlight bounds concurrently handled requests; the excess is shed
	// with 429 (ShedExempt routes bypass it). Zero or negative means
	// unlimited.
	MaxInFlight int
	// SLOs are the per-endpoint objectives scored on every non-Meta
	// request. Empty disables the SLO layer.
	SLOs []obs.SLO
	// TraceRing sizes the tail-based retention ring behind
	// GET /debug/tracez. Zero or negative disables retention (the route
	// answers 404) and with it the per-request trace of unsampled requests.
	TraceRing int
	// TraceSlow is the latency at or above which a clean request's span
	// tree is retained. Zero or negative retains only errored and degraded
	// requests.
	TraceSlow time.Duration
	// Logger receives request failures (5xx at warn, 4xx at debug); nil
	// silences them.
	Logger *obs.Logger
}

// RouteFlags are the per-route attributes of Pipeline.Handle.
type RouteFlags uint8

const (
	// ShedExempt routes bypass admission control: health and the
	// scrape/debug surfaces must answer exactly when the server is
	// saturated, and a queued train submit or a cancel costs nothing to
	// admit.
	ShedExempt RouteFlags = 1 << iota
	// Meta routes are a tier's own observability surfaces. They are never
	// SLO-scored, retained, or traced on the ring's behalf, so a dashboard
	// polling /metricsz cannot burn an error budget or wash real traces out
	// of the ring.
	Meta
)

// HandlerFunc is the handler shape of both tiers: write the 2xx response
// and return nil, or return an error (a *StatusError picks the status;
// anything else is a 500) and let the pipeline write the envelope.
type HandlerFunc func(w http.ResponseWriter, r *http.Request) error

// Pipeline is the request path shared by dmsd and dmsrouter: body cap,
// admission control, X-Dms-Trace join and span trailer, per-endpoint
// error/latency series, the error envelope, failure logging, SLO scoring,
// tail-based trace retention with its /debug/tracez surface, and the HTTP
// listener. A client cannot tell the tiers apart because there is only
// one implementation to answer it. Safe for concurrent use once routes
// are registered.
type Pipeline struct {
	cfg PipelineConfig
	mux *http.ServeMux
	reg *obs.Registry
	slo *obs.SLOEvaluator
	// ring keeps the span trees worth keeping; see Retain.
	ring *obs.TraceLog

	// sem is the in-flight admission semaphore (nil = unlimited).
	sem      chan struct{}
	inFlight atomic.Int64
	shed     atomic.Int64
	requests atomic.Int64

	epErrors  *obs.CounterVec
	epLatency *obs.HistogramVec

	lis  net.Listener
	http *http.Server
}

// NewPipeline builds the request path with its own routing table and
// metrics registry, and mounts GET /debug/tracez on it. The registry
// starts with the tier's identity — <prefix>uptime_seconds and
// <prefix>build_info — and its request-path series.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = defaultMaxBodyBytes
	}
	p := &Pipeline{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		reg:  obs.NewRegistry(),
		slo:  obs.NewSLOEvaluator(cfg.SLOs),
		ring: obs.NewTraceLog(cfg.TraceRing),
	}
	if cfg.MaxInFlight > 0 {
		p.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	pre := cfg.MetricPrefix
	start := time.Now()
	p.reg.GaugeFunc(pre+"uptime_seconds", "seconds since the tier started",
		func() float64 { return time.Since(start).Seconds() })
	p.reg.Info(pre+"build_info", "the running build: Go toolchain, main-module version, VCS revision", buildInfo()...)
	p.reg.CounterFunc(pre+"requests_total", "requests handled (shed excluded)", p.requests.Load)
	p.reg.CounterFunc(pre+"shed_total", "requests rejected with 429 by admission control", p.shed.Load)
	p.reg.GaugeFunc(pre+"in_flight", "requests currently being handled",
		func() float64 { return float64(p.inFlight.Load()) })
	p.reg.CounterFunc(pre+"retained_traces_total", "span trees retained by tail-based sampling", p.ring.Total)
	p.epErrors = p.reg.CounterVec(pre+"endpoint_errors_total", "error responses by endpoint", "endpoint")
	p.epLatency = p.reg.HistogramVec(pre+"endpoint_latency_seconds", "request latency by endpoint", "endpoint")
	p.slo.Register(p.reg)
	p.Handle("GET "+PathTraces, "tracez", ShedExempt|Meta, p.handleTraces)
	return p
}

// Handle registers h under a ServeMux pattern. name labels the route's
// metric series, SLO matches and retained traces.
//
// A trace is built when the client asked for one (X-Dms-Trace with
// ;sample) or the retention ring might want it; otherwise the request
// runs with a nil trace and every span call no-ops. The trace is always
// marked sampled, so a router's shard calls carry the header and the
// whole tree assembles even when only the ring asked — but the tree goes
// back on the wire only when the inbound header asked: a ring-only trace
// never declares the trailer or encodes a dump, and is materialised only
// if Retain keeps it (tail-based sampling: decide after the outcome is
// known).
func (p *Pipeline) Handle(pattern, name string, flags RouteFlags, h HandlerFunc) {
	// The route's error counter and latency histogram: registry members,
	// the histogram lock-free, so neither the request path nor a scrape
	// serializes on a stats lock.
	errs, hist := p.epErrors.With(name), p.epLatency.With(name)
	shed := p.sem != nil && flags&ShedExempt == 0
	meta := flags&Meta != 0
	p.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if p.cfg.MaxBodyBytes > 0 && r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes)
		}
		if shed {
			select {
			case p.sem <- struct{}{}:
				defer func() { <-p.sem }()
			default:
				p.shed.Add(1)
				WriteStatusError(w, errf(http.StatusTooManyRequests, "server at max in-flight requests"))
				return
			}
		}
		p.inFlight.Add(1)
		defer p.inFlight.Add(-1)
		p.requests.Add(1)

		id, sampled := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		var tr *obs.Trace
		var root *obs.Span
		if sampled || (!meta && p.ring.Enabled()) {
			tr = obs.NewTrace(id, true)
			ctx := obs.NewContext(r.Context(), tr)
			ctx, root = obs.StartSpan(ctx, p.cfg.RootSpan)
			r = r.WithContext(ctx)
		}
		if sampled {
			// The span tree is only complete after the body is written, so
			// it rides back as an HTTP trailer (chunked responses only —
			// fixed-length ones like checkpoint downloads drop it).
			w.Header().Set("Trailer", obs.SpanHeader)
		}

		begin := time.Now()
		err := h(w, r)
		d := time.Since(begin)
		root.End()
		hist.Record(d)
		if sampled {
			w.Header().Set(obs.SpanHeader, obs.EncodeDump(tr.Dump()))
		}
		if err != nil {
			errs.Inc()
			p.logFailure(name, r, d, err)
			WriteStatusError(w, err)
		}
		if !meta {
			p.slo.Observe(name, d, err != nil)
			p.Retain(name, d, err, tr)
		}
	})
}

// logFailure reports one failed request: server faults at warn, the
// caller's own mistakes at debug.
func (p *Pipeline) logFailure(name string, r *http.Request, d time.Duration, err error) {
	log := p.cfg.Logger.Warn
	var se *StatusError
	if errors.As(err, &se) && se.Code < http.StatusInternalServerError {
		log = p.cfg.Logger.Debug
	}
	log("request failed", "endpoint", name, "method", r.Method, "path", r.URL.Path, "dur", d, "err", err)
}

// Retain applies the tail-based retention decision to one finished
// operation — a request, or a training job reporting through the
// trainer's OnTrace hook: its span tree is kept when it failed, ran
// degraded, or took at least TraceSlow. The dump is materialised only
// for kept entries, so the common fast request costs two comparisons.
func (p *Pipeline) Retain(op string, d time.Duration, err error, tr *obs.Trace) {
	if tr == nil || !p.ring.Enabled() {
		return
	}
	degraded := tr.Degraded()
	slow := p.cfg.TraceSlow > 0 && d >= p.cfg.TraceSlow
	if err == nil && !degraded && !slow {
		return
	}
	e := obs.TraceEntry{Op: op, DurMS: durMS(d), At: time.Now(), Degraded: degraded, Trace: tr.Dump()}
	if err != nil {
		e.Error = err.Error()
	}
	p.ring.Add(e)
}

// handleTraces serves GET /debug/tracez: the retained span trees, newest
// first, filterable by ?op=&min_ms=&error=&degraded=. 404 when retention
// is off, so probers can tell "off" from "empty".
func (p *Pipeline) handleTraces(w http.ResponseWriter, r *http.Request) error {
	params := r.URL.Query()
	q := obs.TraceQuery{Op: params.Get("op")}
	if v := params.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return errf(http.StatusBadRequest, "tracez: bad min_ms: %v", err)
		}
		q.MinMS = ms
	}
	for _, f := range []struct {
		name string
		dst  **bool
	}{{"error", &q.Error}, {"degraded", &q.Degraded}} {
		if v := params.Get(f.name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return errf(http.StatusBadRequest, "tracez: bad %s: %v", f.name, err)
			}
			*f.dst = &b
		}
	}
	entries, err := p.ring.Query(q)
	if errors.Is(err, obs.ErrDisabled) {
		return errf(http.StatusNotFound, "%v", err)
	}
	if err != nil {
		return errf(http.StatusInternalServerError, "tracez: %v", err)
	}
	return WriteBody(w, r, TracezResponse{Total: p.ring.Total(), Traces: entries})
}

// Registry exposes the pipeline's metrics registry so a tier (and its
// daemon) can hang its own collectors onto the same /metricsz surface.
func (p *Pipeline) Registry() *obs.Registry { return p.reg }

// Handler exposes the routing table: to serve it (e.g. under httptest),
// or to mount handlers that bypass the pipeline (net/http/pprof).
func (p *Pipeline) Handler() *http.ServeMux { return p.mux }

// Requests reports how many requests have been handled (shed ones excluded).
func (p *Pipeline) Requests() int64 { return p.requests.Load() }

// Shed reports how many requests were rejected with 429.
func (p *Pipeline) Shed() int64 { return p.shed.Load() }

// InFlight reports how many requests are being handled right now.
func (p *Pipeline) InFlight() int { return int(p.inFlight.Load()) }

// SLOStatus evaluates every objective now and refreshes the dms_slo_*
// burn gauges; call it before rendering /metricsz.
func (p *Pipeline) SLOStatus() []obs.SLOStatus { return p.slo.Status() }

// buildInfo reads the running binary's identity once: the Go toolchain,
// the main-module version and the VCS revision when built from a
// checkout, each "unknown" when the build carries no such metadata (go
// test binaries, for one).
var buildInfo = sync.OnceValue(func() []obs.Label {
	goVersion, version, revision := "unknown", "unknown", "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		goVersion = info.GoVersion
		if v := info.Main.Version; v != "" {
			version = v
		}
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return []obs.Label{{Key: "go_version", Value: goVersion}, {Key: "version", Value: version}, {Key: "revision", Value: revision}}
})

// Listen binds to addr ("127.0.0.1:0" picks a free port) and starts
// serving in a background goroutine. It returns the bound address.
func (p *Pipeline) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.lis = lis
	p.http = &http.Server{
		Handler: p.mux,
		// Bound header reads and idle keep-alives so trickling clients
		// cannot pin connections (and admission slots) forever. No global
		// ReadTimeout: large legitimate ingest bodies stream at their own
		// pace under the MaxBodyBytes cap.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go p.http.Serve(lis)
	return lis.Addr().String(), nil
}

// Addr returns the bound address ("" before Listen).
func (p *Pipeline) Addr() string {
	if p.lis == nil {
		return ""
	}
	return p.lis.Addr().String()
}

// Shutdown gracefully stops the listener: it closes immediately and
// in-flight requests get until ctx expires to finish. A no-op before
// Listen.
func (p *Pipeline) Shutdown(ctx context.Context) error {
	if p.http == nil {
		return nil
	}
	return p.http.Shutdown(ctx)
}

// JSONHandler adapts a typed call to a HandlerFunc: decode the body into
// Req, call f, write its Resp — each in the encoding the request chose
// (see decodeBody and WriteBody).
func JSONHandler[Req, Resp any](f func(context.Context, Req) (Resp, error)) HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) error {
		var req Req
		if err := decodeBody(r, &req); err != nil {
			return err
		}
		resp, err := f(r.Context(), req)
		if err != nil {
			return err
		}
		return WriteBody(w, r, resp)
	}
}

// errf builds a handler error whose envelope code and retryability are
// derived from the HTTP status; errc is the variant for statuses with
// more than one meaning (409 is conflict or not_fitted).
func errf(code int, format string, args ...any) error {
	return errc(code, codeForStatus(code), format, args...)
}

func errc(code int, errCode ErrorCode, format string, args ...any) error {
	return &StatusError{
		Code: code, ErrCode: errCode,
		Message: fmt.Sprintf(format, args...), Retryable: retryableStatus(code),
	}
}

// bodyError maps a request-body read or decode failure to its status: a
// body over the pipeline's cap is 413, anything else is the caller's
// malformed input.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errf(http.StatusRequestEntityTooLarge, "request body exceeds the %d-byte cap", tooLarge.Limit)
	}
	return errf(http.StatusBadRequest, "decoding request: %v", err)
}

// bodyPresizeMax clamps the buffer a request's Content-Length reserves up
// front: a header that lies reserves at most this, and a body that really
// is larger grows the buffer as it arrives.
const bodyPresizeMax = 4 << 20

// readSized reads r to EOF into a buffer sized for the n bytes announced
// (n < 0: unknown). The buffer is fresh every time and never pooled:
// decoded samples alias it.
func readSized(r io.Reader, n int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, max(min(n, bodyPresizeMax), 0)+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// readBody reads a request body whole, mapping a failure (413 past the
// pipeline's cap) to its status.
func readBody(r *http.Request) ([]byte, error) {
	body, err := readSized(r.Body, r.ContentLength)
	if err != nil {
		return nil, bodyError(err)
	}
	return body, nil
}

// decodeBody reads the request body and decodes it into v (a pointer to a
// wire struct) in the encoding Content-Type names: frames for
// ContentTypeFrames, JSON for everything else.
func decodeBody(r *http.Request, v any) error {
	_, sp := obs.StartSpan(r.Context(), "decode")
	defer sp.End()
	body, err := readBody(r)
	if err != nil {
		return err
	}
	if err := unmarshalBody(r.Header.Get("Content-Type"), body, v); err != nil {
		return bodyError(err)
	}
	return nil
}

// WriteBody writes v as the 200 response to r: framed when v carries
// samples and the request's Accept names ContentTypeFrames, as JSON
// otherwise — what every caller but dmsapi.Client gets.
func WriteBody(w http.ResponseWriter, r *http.Request, v any) error {
	_, sp := obs.StartSpan(r.Context(), "encode")
	defer sp.End()
	if strings.Contains(r.Header.Get("Accept"), ContentTypeFrames) && carriesSamples(reflect.TypeOf(v)) {
		body, err := encodeFrames(v)
		if err != nil {
			return err
		}
		w.Header().Set("Content-Type", ContentTypeFrames)
		if w.Header().Get("Trailer") == "" {
			// A known length lets the reader size its buffer once; a
			// response that owes a span trailer has to stay chunked.
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		_, err = w.Write(body)
		return err
	}
	w.Header().Set("Content-Type", contentTypeJSON)
	return json.NewEncoder(w).Encode(v)
}

// durMS converts a duration to fractional milliseconds for wire stats.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
