// Package obs is the repo's stdlib-only observability kit: request-scoped
// tracing (Trace/Span trees with monotonic timings and context
// propagation), a central metrics Registry with Prometheus-text
// exposition, and a tail-based trace retention ring. It exists so every tier
// of the serving stack — dmsapi client, dmsd handlers, fairds stages,
// the trainer, and the docstore TCP client — reports timing through one
// vocabulary instead of hand-kept counters per package.
//
// Span and metric names are lowercase_snake ASCII ([a-z][a-z0-9_]*); the
// fairvet obsnames analyzer enforces this at CI time and the Registry
// enforces it at registration time.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Wire headers. TraceHeader rides on the request ("<id>" or "<id>;sample")
// and names the trace a server should join; SpanHeader rides back on the
// response as an HTTP trailer carrying the server's completed span tree as
// compact JSON (a trailer, because the tree is only complete after the
// body is written).
const (
	TraceHeader = "X-Dms-Trace"
	SpanHeader  = "X-Dms-Trace-Spans"
)

// maxSpans caps a single trace's span count so a runaway loop (one span
// per document in a huge batch, say) degrades to dropped spans rather than
// unbounded memory held by the retention ring.
const maxSpans = 256

// Trace is one request's span tree. Spans are stored flat with parent
// indices; timings are offsets from the trace start on the monotonic
// clock. All methods are safe for concurrent use by the fan-out
// goroutines of a single request. The zero Trace is not usable — a nil
// *Trace, however, is: every method no-ops, so untraced requests pay
// nothing.
type Trace struct {
	id      string
	sampled bool
	start   time.Time
	// degraded marks a request answered without every shard; it lives on
	// the trace because retention is the only reader, and a retained
	// request always has one.
	degraded atomic.Bool

	mu      sync.Mutex
	spans   []spanData
	dropped int
	grafts  []graftData
}

// graftData is a remote tier's span tree waiting to be spliced into the
// local tree at Dump time, still in its SpanHeader encoding.
type graftData struct {
	at     int
	remote string
}

type spanData struct {
	name   string
	parent int // index into spans; -1 = root
	start  time.Duration
	dur    time.Duration
	open   bool
}

// NewTrace starts a trace. An empty id is replaced by a fresh random one;
// a caller-supplied id (from the wire) is sanitized to at most 32 hex-ish
// characters. sampled marks whether the caller asked for the span tree
// back on the response.
func NewTrace(id string, sampled bool) *Trace {
	if id = sanitizeID(id); id == "" {
		id = newID()
	}
	return &Trace{id: id, sampled: sampled, start: time.Now()}
}

// ID returns the trace identifier. Nil-safe.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Sampled reports whether the span tree should be returned on the wire.
// Nil-safe.
func (t *Trace) Sampled() bool { return t != nil && t.sampled }

// MarkDegraded flags the request as answered from a partial merge, so
// the retention step keeps its span tree. Nil-safe.
func (t *Trace) MarkDegraded() {
	if t != nil {
		t.degraded.Store(true)
	}
}

// Degraded reports whether MarkDegraded was called. Nil-safe.
func (t *Trace) Degraded() bool { return t != nil && t.degraded.Load() }

// startSpan opens a span under parent and returns its handle, or nil when
// the trace is nil or full.
func (t *Trace) startSpan(parent int, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return nil
	}
	t.spans = append(t.spans, spanData{
		name:   name,
		parent: parent,
		start:  time.Since(t.start),
		open:   true,
	})
	return &Span{t: t, idx: len(t.spans) - 1}
}

// Span is a handle to one open span. A nil *Span is valid and inert, so
// call sites never need to guard on whether tracing is active.
type Span struct {
	t   *Trace
	idx int
}

// Index returns the span's position in its trace's Dump (a valid Graft
// target). Nil spans return -1.
func (s *Span) Index() int {
	if s == nil {
		return -1
	}
	return s.idx
}

// End closes the span, fixing its duration. Ending twice keeps the first
// duration. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	sp := &s.t.spans[s.idx]
	if sp.open {
		sp.dur = time.Since(s.t.start) - sp.start
		sp.open = false
	}
}

// ctxVal threads a trace plus the index of the current parent span.
type ctxVal struct {
	t    *Trace
	span int
}

type ctxKey struct{}

// NewContext returns ctx carrying t; spans started from it are roots.
// A nil t returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, span: -1})
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.t
}

// StartSpan opens a span named name under the current span in ctx and
// returns a derived context (for child spans) plus the span handle. When
// ctx carries no trace — or the trace is full — both returns are inert:
// the original ctx and a nil span whose End is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	if !ok || v.t == nil {
		return ctx, nil
	}
	s := v.t.startSpan(v.span, name)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: v.t, span: s.idx}), s
}

// TraceDump is the wire and report form of a span tree: a flat span list
// with parent indices and microsecond offsets from the trace start.
type TraceDump struct {
	ID      string     `json:"id"`
	Spans   []SpanDump `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// SpanDump is one span in a TraceDump.
type SpanDump struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into Spans; -1 = root
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// AttachRemote records a remote tier's span tree — a SpanHeader value, as
// EncodeDump wrote it — to be grafted under the local span at index at
// when the trace is dumped: how a middle tier (e.g. the cluster router
// forwarding to shards) splices each shard's trailer dump into the tree
// it returns on its own trailer. at indexes the local trace's own spans
// (Span.Index of the round-trip span the remote call ran under). The
// value is decoded only by Dump, so a trace that is never dumped — a
// router's ring-only trace of a fast request — never parses it; a
// malformed value grafts nothing. Nil-safe.
func (t *Trace) AttachRemote(at int, remote string) {
	if t == nil || remote == "" {
		return
	}
	t.mu.Lock()
	t.grafts = append(t.grafts, graftData{at: at, remote: remote})
	t.mu.Unlock()
}

// Dump snapshots the span tree, with every AttachRemote tree grafted in.
// Spans still open are reported with their duration so far. Nil-safe: a
// nil trace dumps empty.
func (t *Trace) Dump() TraceDump {
	if t == nil {
		return TraceDump{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceDump{ID: t.id, Dropped: t.dropped, Spans: make([]SpanDump, len(t.spans))}
	for i, sp := range t.spans {
		dur := sp.dur
		if sp.open {
			dur = time.Since(t.start) - sp.start
		}
		d.Spans[i] = SpanDump{
			Name:    sp.name,
			Parent:  sp.parent,
			StartUS: sp.start.Microseconds(),
			DurUS:   dur.Microseconds(),
		}
	}
	// Grafts splice remote spans after the local ones, so each recorded
	// at — an index into the local span list — stays valid across
	// successive grafts.
	for _, g := range t.grafts {
		if remote, ok := DecodeDump(g.remote); ok && len(remote.Spans) > 0 {
			d = Graft(d, g.at, remote)
		}
	}
	return d
}

// Duration returns the end-to-end duration of the dump: the latest span
// end across all spans (roots included), as a time.Duration.
func (d TraceDump) Duration() time.Duration {
	var maxUS int64
	for _, sp := range d.Spans {
		if end := sp.StartUS + sp.DurUS; end > maxUS {
			maxUS = end
		}
	}
	return time.Duration(maxUS) * time.Microsecond
}

// SpanNames returns the distinct span names in first-seen order.
func (d TraceDump) SpanNames() []string {
	seen := make(map[string]bool, len(d.Spans))
	var names []string
	for _, sp := range d.Spans {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			names = append(names, sp.Name)
		}
	}
	return names
}

// Graft appends remote's spans to local, re-parented under local span
// index at (remote roots become children of at) with offsets shifted so
// the remote tree sits inside the local parent's timeline. It is how the
// client merges the server's trailer dump under its own round-trip span
// to produce one contiguous tree. An at of -1 keeps remote roots as
// roots. A remote span whose parent is not an earlier remote span — out
// of range, itself or a later one, none of which a Trace dumps — counts
// as a root too, so a hostile trailer cannot graft a cycle: every parent
// in the result is -1 or an earlier index, provided local's are.
func Graft(local TraceDump, at int, remote TraceDump) TraceDump {
	if at < 0 || at >= len(local.Spans) {
		at = -1
	}
	base := len(local.Spans)
	var shift int64
	if at >= 0 {
		shift = local.Spans[at].StartUS
	}
	out := local
	out.Spans = append(out.Spans[:len(out.Spans):len(out.Spans)], make([]SpanDump, len(remote.Spans))...)
	for i, sp := range remote.Spans {
		if sp.Parent >= 0 && sp.Parent < i {
			sp.Parent += base
		} else {
			sp.Parent = at
		}
		sp.StartUS += shift
		out.Spans[base+i] = sp
	}
	out.Dropped += remote.Dropped
	return out
}

// FormatTraceHeader renders the request header value: "<id>" or
// "<id>;sample".
func FormatTraceHeader(id string, sample bool) string {
	if sample {
		return id + ";sample"
	}
	return id
}

// ParseTraceHeader splits a request header value into trace id and sample
// flag. Unknown attributes are ignored; a malformed or empty value yields
// ("", false).
func ParseTraceHeader(v string) (id string, sample bool) {
	parts := strings.Split(v, ";")
	id = sanitizeID(strings.TrimSpace(parts[0]))
	for _, p := range parts[1:] {
		if strings.TrimSpace(p) == "sample" {
			sample = true
		}
	}
	return id, sample
}

// EncodeDump renders d as the compact JSON carried by SpanHeader.
func EncodeDump(d TraceDump) string {
	b, err := json.Marshal(d)
	if err != nil {
		return ""
	}
	return string(b)
}

// DecodeDump parses a SpanHeader value. Malformed input returns ok=false
// rather than an error: a missing or truncated trailer only costs the
// caller its span tree, never the response.
func DecodeDump(s string) (TraceDump, bool) {
	var d TraceDump
	if s == "" || json.Unmarshal([]byte(s), &d) != nil {
		return TraceDump{}, false
	}
	return d, true
}

// sanitizeID keeps at most 32 characters of [0-9a-f-], rejecting anything
// else so a hostile header cannot smuggle bytes into logs or trailers.
func sanitizeID(id string) string {
	if len(id) > 32 {
		id = id[:32]
	}
	for _, r := range id {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r == '-':
		default:
			return ""
		}
	}
	return id
}

// newID returns 16 hex characters of crypto randomness.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; a constant
		// id keeps tracing functional for diagnostics.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
