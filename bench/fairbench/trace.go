package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/tensor"
	"fairdms/internal/vecindex"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files at a seam the product exposes. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: an op's root (the client span) or a direct call
	Op     int    `json:"op"`     // spans of one client op share it
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"` // which in-process daemon
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Direct marks the second pass, where the op's concrete layer
	// (fairds.Service, fairms.Zoo) is called without HTTP so its own time
	// can be separated from its callees'.
	Direct bool `json:"direct,omitempty"`
	N      int  `json:"n,omitempty"`     // rows, documents or vectors handled
	Bytes  int  `json:"bytes,omitempty"` // payload bytes, where the seam sees them
}

func (s span) dur() int64 { return s.End - s.Start }

// Layers as the per-layer metrics name them. layerClient is the op's root
// span: what of it no layer span covers is trace.unattributed_share.
const (
	layerClient  = "client"
	layerAPI     = "dmsapi"
	layerCluster = "dmscluster"
	layerDS      = "fairds"
	layerMS      = "fairms"
	layerEmbed   = "embed"
	layerIndex   = "vecindex"
	layerStore   = "docstore"
	layerCodec   = "codec"
	layerTrainer = "trainer"
)

// tracer keeps spans in memory. One client request is in flight at a time,
// so parentage needs no context plumbing: a layer span's parent is the
// innermost open handler span of its node, else the open direct call, else
// the open client span.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	op     int
	root   int              // open client span, -1 when none
	direct int              // open direct-call span, -1 when none
	router []int            // open router handler spans
	open   map[string][]int // node → open shard handler spans
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), root: -1, direct: -1, open: make(map[string][]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends an open span and returns its ID. Caller holds t.mu.
func (t *tracer) add(s span) int {
	s.ID, s.Op, s.Start = len(t.spans), t.op, t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

// beginOp opens the client span of a new op. Like every begin, it returns
// -1 and records nothing while the tracer is off; end ignores -1.
func (t *tracer) beginOp(name string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.root = t.add(span{Parent: -1, Layer: layerClient, Name: name})
	return t.root
}

// beginDirect opens a direct-call span for the current op.
func (t *tracer) beginDirect(layer, name, node string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.direct = t.add(span{Parent: -1, Layer: layer, Name: name, Node: node, Direct: true})
	return t.direct
}

// begin opens a layer span under whatever is open around it.
func (t *tracer) begin(layer, name, node string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent, direct := t.root, false
	if t.direct >= 0 {
		parent, direct = t.direct, true
	} else if h := t.open[node]; len(h) > 0 {
		parent = h[len(h)-1]
	}
	return t.add(span{Parent: parent, Layer: layer, Name: name, Node: node, Direct: direct})
}

// beginHandler opens a handler span: a router's under the client span, a
// shard's under the open router span when there is one.
func (t *tracer) beginHandler(layer, name, node string) int {
	if !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.root
	if layer != layerCluster && len(t.router) > 0 {
		parent = t.router[len(t.router)-1]
	}
	id := t.add(span{Parent: parent, Layer: layer, Name: name, Node: node})
	if layer == layerCluster {
		t.router = append(t.router, id)
	} else {
		t.open[node] = append(t.open[node], id)
	}
	return id
}

// end closes a span, recording how much it handled.
func (t *tracer) end(id, n, bytes int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.N, s.Bytes = t.now(), n, bytes
	switch {
	case id == t.root:
		t.root = -1
	case id == t.direct:
		t.direct = -1
	case s.Layer == layerCluster && s.Name == "handler":
		t.router = remove(t.router, id)
	case s.Name == "handler":
		t.open[s.Node] = remove(t.open[s.Node], id)
	}
}

// record adds a closed span under the open client span from wall-clock
// timestamps another process half reported (a training job's start and
// finish).
func (t *tracer) record(layer, name string, start, end time.Time, n int) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.add(span{Parent: t.root, Layer: layer, Name: name, N: n})
	t.spans[id].Start, t.spans[id].End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
}

func remove(ids []int, id int) []int {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals (clipped to the span). The union matters —
// fairds fans lookups out concurrently and a router scatters to shards in
// parallel, so summing child durations would subtract the same wall time
// more than once. Spans are indexed by ID; IDs need not be dense.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// attribute splits the traced wall time — the client spans' durations —
// among layers so that the parts add up to the whole. At every instant the
// time belongs to the frontier: the open spans with no open child, the code
// actually running or blocking. Concurrent frontier spans (fairds' fanned
// out fetches, a router's parallel shards) share the instant equally, so
// eight overlapping 5 ms fetches cost their layer 5 ms of the op, not 40.
// A client span's own frontier time is the part no layer span covers.
// Direct-call spans are left out; a child is clipped to its parent.
func attribute(spans []span) (byLayer map[string]int64, wall int64) {
	byLayer = make(map[string]int64)
	type node struct {
		span
		kids int // open children during the sweep
		open bool
	}
	nodes := make(map[int]*node, len(spans))
	type event struct {
		at    int64
		start bool
		id    int
	}
	var events []event
	for _, s := range spans { // ascending ID: a parent precedes its children
		if s.Direct || (s.Parent == -1 && s.Layer != layerClient) {
			continue
		}
		if s.Parent >= 0 {
			p, ok := nodes[s.Parent]
			if !ok {
				continue
			}
			s.Start, s.End = max(s.Start, p.Start), min(s.End, p.End)
		} else {
			wall += s.dur()
		}
		if s.End <= s.Start {
			continue
		}
		nodes[s.ID] = &node{span: s}
		events = append(events, event{s.Start, true, s.ID}, event{s.End, false, s.ID})
	}
	// Ends sort before starts at one instant, so a sibling hand-over never
	// shows both open.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].start && events[j].start
	})
	frontier := make(map[int]*node)
	last := int64(0)
	for _, e := range events {
		if n := len(frontier); n > 0 && e.at > last {
			part := (e.at - last) / int64(n)
			for _, f := range frontier {
				byLayer[f.Layer] += part
			}
		}
		last = e.at
		nd := nodes[e.id]
		parent := nodes[nd.Parent] // nil for a client span
		if e.start {
			nd.open = true
			frontier[nd.ID] = nd
			if parent != nil && parent.open {
				parent.kids++
				delete(frontier, parent.ID)
			}
		} else {
			nd.open = false
			delete(frontier, nd.ID)
			if parent != nil && parent.open {
				if parent.kids--; parent.kids == 0 {
					frontier[parent.ID] = parent
				}
			}
		}
	}
	return byLayer, wall
}

// ---------------------------------------------------------------------------
// Timing decorators at the seams the product exposes as interfaces. With
// the tracer off each call costs two atomic loads.

type tracedEmbedder struct {
	embed.Embedder
	t    *tracer
	node string
}

func (e tracedEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	id := e.t.begin(layerEmbed, "embed", e.node)
	out := e.Embedder.Embed(x)
	e.t.end(id, x.Dim(0), 0)
	return out
}

type tracedCodec struct {
	codec.Codec
	t    *tracer
	node string
}

func (c tracedCodec) Encode(s *codec.Sample) ([]byte, error) {
	id := c.t.begin(layerCodec, "encode", c.node)
	b, err := c.Codec.Encode(s)
	c.t.end(id, len(s.Data), len(b)) // user bytes in, stored bytes out
	return b, err
}

func (c tracedCodec) Decode(b []byte) (*codec.Sample, error) {
	id := c.t.begin(layerCodec, "decode", c.node)
	s, err := c.Codec.Decode(b)
	c.t.end(id, 1, len(b))
	return s, err
}

type tracedIndex struct {
	vecindex.Index
	t    *tracer
	node string
}

func (x tracedIndex) Add(id string, cluster int, vec []float64) error {
	sp := x.t.begin(layerIndex, "add", x.node)
	err := x.Index.Add(id, cluster, vec)
	x.t.end(sp, 1, 0)
	return err
}

func (x tracedIndex) Nearest(cluster int, q []float64, exclude func(string) bool) (vecindex.Result, bool) {
	sp := x.t.begin(layerIndex, "nearest", x.node)
	res, ok := x.Index.Nearest(cluster, q, exclude)
	x.t.end(sp, 1, 0)
	return res, ok
}

// backend is what fairds needs from a docstore collection: the DataStore
// surface plus the transaction upgrade batch ingest commits through.
type backend interface {
	fairds.DataStore
	fairds.TxnStore
}

type tracedStore struct {
	backend
	t    *tracer
	node string
}

func (s tracedStore) InsertMany(fs []docstore.Fields) ([]string, error) {
	id := s.t.begin(layerStore, "insert", s.node)
	ids, err := s.backend.InsertMany(fs)
	s.t.end(id, len(fs), 0)
	return ids, err
}

func (s tracedStore) ApplyTxn(ops []docstore.TxnOp) ([]string, error) {
	id := s.t.begin(layerStore, "insert", s.node)
	ids, err := s.backend.ApplyTxn(ops)
	s.t.end(id, len(ops), 0)
	return ids, err
}

func (s tracedStore) GetMany(ids []string) ([]*docstore.Doc, error) {
	id := s.t.begin(layerStore, "getmany", s.node)
	docs, err := s.backend.GetMany(ids)
	s.t.end(id, len(ids), 0)
	return docs, err
}

func (s tracedStore) Find(q docstore.Query) ([]*docstore.Doc, error) {
	id := s.t.begin(layerStore, "find", s.node)
	docs, err := s.backend.Find(q)
	s.t.end(id, len(docs), 0)
	return docs, err
}

func (s tracedStore) FindIDs(q docstore.Query) ([]string, error) {
	id := s.t.begin(layerStore, "findids", s.node)
	ids, err := s.backend.FindIDs(q)
	s.t.end(id, len(ids), 0)
	return ids, err
}

func (s tracedStore) SampleIDs(q docstore.Query, n int, seed int64) ([]string, error) {
	id := s.t.begin(layerStore, "sampleids", s.node)
	ids, err := s.backend.SampleIDs(q, n, seed)
	s.t.end(id, len(ids), 0)
	return ids, err
}

// tracedHandler wraps a daemon's http.Handler. Only /v1 requests are
// spans: health probes and scrapes are not work the client asked for.
type tracedHandler struct {
	inner http.Handler
	t     *tracer
	layer string // layerAPI for a dmsd, layerCluster for the router
	node  string
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := -1
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		id = h.t.beginHandler(h.layer, "handler", h.node)
	}
	h.inner.ServeHTTP(w, r)
	data := 0
	if strings.HasPrefix(r.URL.Path, "/v1/data/") {
		data = 1 // every data endpoint makes one call into fairds.Service
	}
	h.t.end(id, data, 0)
}
