package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/fsx"
	"fairdms/internal/vecindex"
	"fairdms/internal/wal"
)

// The traced pass rebuilds a workload's stack in this process from the
// layers' public constructors — the wiring cmd/dmsd and cmd/dmsrouter do,
// with dmsd's default flag values — and puts a timing decorator on every
// seam the product exposes as an interface. End-to-end numbers never come
// from here: tracing has a cost, reported as trace.overhead_share.

// Values of the dmsd flags the in-process stack reproduces.
const (
	dmsdSeed          = 1
	dmsdEmbedHidden   = 64
	dmsdEmbedDim      = 8
	dmsdSlowThreshold = 250 * time.Millisecond
	dmsdTrainWorkers  = 2
)

// inprocNode is one in-process dmsd.
type inprocNode struct {
	name    string
	ds      *fairds.Service
	zoo     *fairms.Zoo
	srv     *dmsapi.Server
	ts      *httptest.Server
	durable *docstore.DurableStore
}

func newService(t *tracer, name string, patch int, col backend) (*fairds.Service, error) {
	emb := embed.Scaled{
		E:      embed.NewAutoencoder(rand.New(rand.NewSource(dmsdSeed)), patch*patch, dmsdEmbedHidden, dmsdEmbedDim),
		Factor: 1,
	}
	return fairds.New(tracedEmbedder{emb, t, name}, tracedStore{col, t, name}, fairds.Config{
		Seed:  dmsdSeed,
		Index: tracedIndex{vecindex.NewFlat(), t, name},
		Codec: tracedCodec{codec.Block{}, t, name},
	})
}

func newInprocNode(t *tracer, name string, patch int, walDir string) (*inprocNode, error) {
	n := &inprocNode{name: name, zoo: fairms.NewZoo()}
	collection := "fairds"
	if name != "" {
		collection += "-" + name
	}
	var col *docstore.Collection
	if walDir != "" {
		var err error
		n.durable, err = docstore.OpenDurable(docstore.DurableOptions{Dir: walDir, Policy: wal.SyncAlways})
		if err != nil {
			return nil, err
		}
		col = n.durable.Collection(collection)
	} else {
		col = docstore.NewStore().Collection(collection)
	}
	var err error
	if n.ds, err = newService(t, name, patch, col); err != nil {
		return nil, err
	}
	n.srv, err = dmsapi.NewServer(dmsapi.ServerConfig{
		DS: n.ds, Zoo: n.zoo, BootstrapK: clusterK,
		TrainWorkers: dmsdTrainWorkers, SlowThreshold: dmsdSlowThreshold,
	})
	if err != nil {
		return nil, err
	}
	n.ts = httptest.NewServer(tracedHandler{n.srv.Handler(), t, layerAPI, name})
	return n, nil
}

func (n *inprocNode) close() {
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // stops the trainer's workers; nothing to report at teardown
	if n.durable != nil {
		n.durable.Abort() // the directory is scratch: no final fsync or compaction
	}
}

// inproc is a whole in-process deployment and its one client.
type inproc struct {
	t       *tracer
	nodes   []*inprocNode
	cluster *dmscluster.Cluster
	router  *httptest.Server
	client  *dmsapi.Client

	opNS []int64 // exchange durations, indexed like ops: even untraced, odd traced
}

func hostport(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

func newInproc(t *tracer, patch int, clustered bool, walDir string) (*inproc, error) {
	p := &inproc{t: t}
	names := []string{""}
	if clustered {
		names = []string{"a", "b", "c"}
	}
	for _, name := range names {
		n, err := newInprocNode(t, name, patch, walDir)
		if err != nil {
			p.close()
			return nil, err
		}
		p.nodes = append(p.nodes, n)
	}
	front := hostport(p.nodes[0].ts)
	if clustered {
		var shards []string
		for _, n := range p.nodes {
			shards = append(shards, hostport(n.ts))
		}
		var err error
		p.cluster, err = dmscluster.New(dmscluster.Config{Shards: shards, BootstrapK: clusterK, Seed: dmsdSeed})
		if err != nil {
			p.close()
			return nil, err
		}
		p.cluster.Start()
		router := dmscluster.NewRouter(p.cluster, dmscluster.RouterConfig{TraceRing: 256, TraceSlow: dmsdSlowThreshold})
		p.router = httptest.NewServer(tracedHandler{router.Handler(), t, layerCluster, "router"})
		front = hostport(p.router)
	}
	var err error
	if p.client, err = newClient(front); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *inproc) close() {
	if p.client != nil {
		p.client.Close()
	}
	if p.router != nil {
		p.router.Close()
	}
	if p.cluster != nil {
		p.cluster.Close()
	}
	for _, n := range p.nodes {
		n.close()
	}
}

// api returns the traced client view: each exchange is what Client.DoJSON
// does — marshal, DoRaw, unmarshal — with a client span around it and
// dmsapi spans around the two codecs, so request and response sizes are
// counted where they are produced.
func (p *inproc) api() api {
	t := p.t
	return api{
		c: p.client,
		post: func(kind opKind, path string, in, out any) error {
			t0 := time.Now()
			root := t.beginOp(kind.String())
			sp := t.begin(layerAPI, "client_encode", "")
			payload, err := json.Marshal(in)
			t.end(sp, 0, len(payload))
			var body []byte
			if err == nil {
				body, err = p.client.DoRaw(context.Background(), "POST", path, payload)
			}
			if err == nil {
				sp = t.begin(layerAPI, "client_decode", "")
				err = json.Unmarshal(body, out)
				t.end(sp, 0, len(body))
			}
			t.end(root, 0, 0)
			p.opNS = append(p.opNS, int64(time.Since(t0)))
			return err
		},
		span: func(kind opKind) func() {
			t0 := time.Now()
			root := t.beginOp(kind.String())
			return func() {
				t.end(root, 0, 0)
				p.opNS = append(p.opNS, int64(time.Since(t0)))
			}
		},
	}
}

// direct calls the concrete layer behind an op once more, without HTTP, on
// every node: the span's self time (its duration minus the decorated
// callees under it) is that layer's own time, which no seam exposes on the
// serving path. Ingest goes to a shadow service so the corpus is not
// written twice.
func (p *inproc) direct(kind opKind, samples []*codec.Sample, pdf []float64, shadow *fairds.Service) {
	if !p.t.on.Load() {
		return
	}
	ctx := context.Background()
	if kind == opRecommend {
		id := p.t.beginDirect(layerMS, "rank", p.nodes[0].name)
		_, _ = p.nodes[0].zoo.Rank(pdf) // timing only; the served answer was checked
		p.t.end(id, 1, 0)
		return
	}
	for _, n := range p.nodes {
		id := p.t.beginDirect(layerDS, kind.String(), n.name)
		// Timing only: errors here would have failed the served op too.
		switch kind {
		case opNearest:
			_, _ = n.ds.NearestMatchesContext(ctx, samples, false)
		case opCertainty:
			if x, err := fairds.Collate(samples); err == nil {
				_, _ = n.ds.CertaintyContext(ctx, x, 0.5)
			}
		case opLookup:
			if x, err := fairds.Collate(samples); err == nil {
				_, _ = n.ds.LookupLabeledContext(ctx, x)
			}
		case opIngest:
			_, _ = shadow.IngestLabeledBatchContext(ctx, samples, "shadow", fairds.BatchOptions{})
		}
		p.t.end(id, len(samples), 0)
	}
}

// tracedOp switches tracing for op i — even ops run untraced, odd ones
// traced — so both halves see the same corpus, caches and op mix, and
// their rates differ by the tracing cost alone.
func (p *inproc) tracedOp(i int) { p.t.on.Store(i%2 == 1) }

// runTraced is the traced pass of rc's workload. It runs after the
// end-to-end pass and adds the per-layer metrics to the same result.
func runTraced(rc *runCtx) error {
	t := newTracer()
	rec := &recorder{res: rc.res} // off: the pass feeds ok_share, not the latency samples
	var p *inproc
	var err error
	switch rc.spec.name {
	case "ingest_recover":
		p, err = tracedIngest(rc, t, rec)
	case "update_cycle":
		p, err = tracedUpdate(rc, t, rec)
	default:
		p, err = tracedServe(rc, t, rec)
	}
	if p != nil {
		defer p.close()
	}
	if err != nil {
		return err
	}
	t.on.Store(false)
	spans := t.snapshot()
	layerMetrics(rc.res, spans, p.opNS)
	microbench(rc)
	rc.res.set("ok_share", rc.res.okShare(), rc.res.Attempted)
	return writeSpans(filepath.Join(rc.l.out, "trace_"+rc.spec.name+".json"), rc, spans)
}

func tracedServe(rc *runCtx, t *tracer, rec *recorder) (*inproc, error) {
	s := rc.spec
	n := rc.units() // half the sequence: a quarter untraced, a quarter traced
	in := genServeInputs(s, rc.seed, n)
	p, err := newInproc(t, s.patch, s.name == "cluster_serve", "")
	if err != nil {
		return nil, err
	}
	a := p.api()
	if _, err := a.seedCorpus("corpus", in.corpus); err != nil {
		return p, err
	}
	zoo, err := a.seedZoo(in.zooPDFs)
	if err != nil {
		return p, err
	}
	p.opNS = p.opNS[:0]
	for i, o := range in.ops {
		p.tracedOp(i)
		t0 := time.Now()
		_, err := serveOp(a, o, in, s.query, zoo)
		rec.observe(o.kind, time.Since(t0), err)
		var q []*codec.Sample
		if o.kind != opRecommend {
			q = in.queries[o.lo : o.lo+s.query]
		}
		p.direct(o.kind, q, o.pdf, nil)
	}
	return p, nil
}

func tracedIngest(rc *runCtx, t *tracer, rec *recorder) (*inproc, error) {
	s := rc.spec
	batches := rc.units()
	in := genIngestInputs(s, rc.seed, batches)
	walDir := filepath.Join(rc.l.tmp, "wal-inproc")
	p, err := newInproc(t, s.patch, false, walDir)
	if err != nil {
		return nil, err
	}
	shadow, err := newService(t, "shadow", s.patch, docstore.NewStore().Collection("shadow"))
	if err != nil {
		return p, err
	}
	if x, err := fairds.Collate(in.batch(0)); err != nil {
		return p, err
	} else if err := shadow.FitClustersK(x, clusterK); err != nil {
		return p, err
	}
	g := &ingestDriver{a: p.api(), rec: rec, in: in, query: s.query, windows: stream(rc.seed, streamOps)}
	for b := 0; b < batches; b++ {
		p.tracedOp(b)
		g.step(b)
		p.direct(opIngest, in.batch(b), nil, shadow)
	}
	// Three exchanges per step: keep the even/odd reading of opNS by step.
	perStep := make([]int64, 0, batches)
	for i := 0; i+readsPerBatch < len(p.opNS); i += 1 + readsPerBatch {
		total := int64(0)
		for _, ns := range p.opNS[i : i+1+readsPerBatch] {
			total += ns
		}
		perStep = append(perStep, total)
	}
	p.opNS = perStep
	return p, nil
}

// tracedUpdates is the traced pass's update count: each costs most of a
// second, so two untraced and two traced is what a run can afford.
const tracedUpdates = 4

func tracedUpdate(rc *runCtx, t *tracer, rec *recorder) (*inproc, error) {
	in := genUpdateInputs(rc.seed, tracedUpdates)
	p, err := newInproc(t, rc.spec.patch, false, "")
	if err != nil {
		return nil, err
	}
	a := p.api()
	if err := seedUpdate(a, in, rc.spec.zoo, rc.seed); err != nil {
		return p, err
	}
	u := &updateDriver{a: a, rec: rec, seed: rc.seed}
	// The trainer is a concrete type with no seam to decorate; its span is
	// rebuilt from the job's own timestamps so the fit is attributed.
	u.onJob = func(job dmsapi.TrainJob) {
		t.record(layerTrainer, "job", job.StartedAt, job.FinishedAt, job.Epochs)
	}
	var perUpdate []int64
	for i := 0; i < tracedUpdates; i++ {
		p.tracedOp(i)
		p.opNS = p.opNS[:0]
		u.update(i, in.drifted[i])
		total := int64(0)
		for _, ns := range p.opNS {
			total += ns
		}
		perUpdate = append(perUpdate, total)
		scan := in.drifted[i]
		p.direct(opCertainty, scan[:labelChunk], nil, nil)
		for lo := 0; lo < len(scan); lo += labelChunk {
			p.direct(opLookup, scan[lo:lo+labelChunk], nil, nil)
		}
	}
	p.opNS = perUpdate
	return p, nil
}

// layerMetrics derives the per-layer metrics from one traced pass. opNS
// holds the client-side duration of every unit of work, untraced at even
// indexes and traced at odd ones.
func layerMetrics(res *result, spans []span, opNS []int64) {
	self := selfTimes(spans)
	selfBy, wall := attribute(spans) // serving path, by layer; adds up to wall
	ops := 0
	directBy := make(map[string]int64) // direct calls' own time, by layer
	type tally struct {
		ns    int64
		n     int
		bytes int
		calls int
	}
	tallies := make(map[string]*tally) // "layer/name" on the serving path
	var routerSelfMS []float64
	for _, s := range spans {
		switch {
		case s.Direct:
			if s.Parent == -1 {
				directBy[s.Layer] += self[s.ID]
			}
			continue
		case s.Layer == layerClient:
			ops++
			continue
		case s.Parent == -1:
			continue // recorded outside any op
		}
		k := s.Layer + "/" + s.Name
		t := tallies[k]
		if t == nil {
			t = &tally{}
			tallies[k] = t
		}
		t.ns += s.dur()
		t.n += s.N
		t.bytes += s.Bytes
		t.calls++
		if s.Layer == layerCluster {
			// What the router did while waiting on no shard.
			routerSelfMS = append(routerSelfMS, float64(self[s.ID])/1e6)
		}
	}
	if ops == 0 || wall == 0 {
		return
	}
	share := func(ns int64) float64 { return float64(ns) / float64(wall) }
	by := func(k string) tally {
		if t := tallies[k]; t != nil {
			return *t
		}
		return tally{}
	}
	// setPer records the mean microseconds per unit of a seam's spans,
	// when the pass exercised the seam at all.
	setPer := func(name string, t tally, units int) {
		if units > 0 {
			res.set(name, float64(t.ns)/1e3/float64(units), units)
		}
	}

	// The handler spans hold dmsapi's time and that of the concrete layers
	// it calls; the direct pass says how much of it is theirs.
	dsSelf := min(directBy[layerDS], selfBy[layerAPI])
	msSelf := min(directBy[layerMS], selfBy[layerAPI]-dsSelf)
	res.set("dmsapi.self_share", share(selfBy[layerAPI]-dsSelf-msSelf), ops)
	res.set("fairds.self_share", share(dsSelf), ops)
	res.set("fairms.self_share", share(msSelf), ops)
	res.set("embed.self_share", share(selfBy[layerEmbed]), ops)
	res.set("vecindex.self_share", share(selfBy[layerIndex]), ops)
	res.set("docstore.self_share", share(selfBy[layerStore]), ops)
	res.set("codec.self_share", share(selfBy[layerCodec]), ops)
	res.set("trace.unattributed_share", share(selfBy[layerClient]), ops)

	fops := float64(ops)
	res.set("dmsapi.request_bytes_per_op", float64(by("dmsapi/client_encode").bytes)/fops, ops)
	res.set("dmsapi.response_bytes_per_op", float64(by("dmsapi/client_decode").bytes)/fops, ops)
	res.set("fairds.calls_per_op", float64(by("dmsapi/handler").n)/fops, ops)
	if e := by("embed/embed"); e.n > 0 {
		setPer("embed.us_per_row", e, e.n)
		res.set("embed.rows_per_op", float64(e.n)/fops, ops)
	}
	setPer("vecindex.nearest_us", by("vecindex/nearest"), by("vecindex/nearest").calls)
	setPer("docstore.insert_us_per_doc", by("docstore/insert"), by("docstore/insert").n)
	setPer("docstore.getmany_us_per_doc", by("docstore/getmany"), by("docstore/getmany").n)
	storeCalls := 0
	for k, t := range tallies {
		if strings.HasPrefix(k, layerStore+"/") {
			storeCalls += t.calls
		}
	}
	res.set("docstore.calls_per_op", float64(storeCalls)/fops, ops)
	if enc := by("codec/encode"); enc.calls > 0 {
		setPer("codec.encode_us_per_doc", enc, enc.calls)
		res.set("codec.stored_bytes_per_user_byte", float64(enc.bytes)/float64(max(enc.n, 1)), enc.calls)
	}
	setPer("codec.decode_us_per_doc", by("codec/decode"), by("codec/decode").calls)
	if len(routerSelfMS) > 0 {
		res.set("dmscluster.router_overhead_ms", median(routerSelfMS), len(routerSelfMS))
	}

	var off, on int64
	var nOff, nOn int
	for i, ns := range opNS {
		if i%2 == 0 {
			off, nOff = off+ns, nOff+1
		} else {
			on, nOn = on+ns, nOn+1
		}
	}
	if nOff > 0 && nOn > 0 && on > 0 {
		rateOff, rateOn := float64(nOff)/float64(off), float64(nOn)/float64(on)
		res.set("trace.overhead_share", 1-rateOn/rateOff, nOn)
	}
}

// writeSpans writes the span file of one traced pass.
func writeSpans(path string, rc *runCtx, spans []span) error {
	err := fsx.WriteAtomic(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(struct {
			Workload string  `json:"workload"`
			Seed     int64   `json:"seed"`
			Seconds  float64 `json:"seconds"`
			Spans    []span  `json:"spans"`
		}{rc.spec.name, rc.seed, rc.seconds, spans})
	})
	if err != nil {
		return fmt.Errorf("fairbench: writing %s: %w", path, err)
	}
	return nil
}
