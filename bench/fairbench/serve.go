package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/dmsapi"
	"fairdms/internal/stats"
)

// runCtx is one workload run: its inputs' coordinates and where results go.
type runCtx struct {
	spec    *spec
	seed    int64
	seconds float64
	// trace additionally runs the in-process traced pass and shortens the
	// end-to-end pass to e2eShare of the fixed work, so a traced run costs
	// about what an untraced one does.
	trace bool
	l     layout
	res   *result
	// walRecord is the mean WAL record size the end-to-end pass wrote, for
	// the wal microbenchmark; 0 on workloads without a WAL.
	walRecord int
}

const e2eShareTraced = 0.5

// units is the run's fixed-work count (ops, batches or updates).
func (rc *runCtx) units() int {
	s := rc.spec
	n := max(s.perSecond*rc.seconds, float64(s.floor))
	if rc.trace {
		n = max(s.perSecond*rc.seconds*e2eShareTraced, float64(s.floor)/2)
	}
	return max(int(math.Round(n/float64(s.chunk))), 1) * s.chunk
}

// api is the benchmark's typed view of one client. Every call returns the
// full response, so checks can see the router's degraded flag. post is the
// one seam between the two passes: end to end it is Client.DoJSON; the
// traced pass substitutes an exchange that records spans around the same
// encode → round trip → decode.
type api struct {
	c    *dmsapi.Client
	post func(op opKind, path string, in, out any) error
	// span brackets a client op that is more than one exchange (a train
	// job's submit and polls); a no-op end to end.
	span func(op opKind) (end func())
}

func e2eAPI(c *dmsapi.Client) api {
	return api{
		c: c,
		post: func(_ opKind, path string, in, out any) error {
			return c.DoJSON(context.Background(), "POST", path, in, out)
		},
		span: func(opKind) func() { return func() {} },
	}
}

func (a api) nearest(q []*codec.Sample) (r dmsapi.NearestResponse, err error) {
	return r, a.post(opNearest, dmsapi.PathNearest, dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(q)}, &r)
}

func (a api) certainty(q []*codec.Sample) (r dmsapi.CertaintyResponse, err error) {
	return r, a.post(opCertainty, dmsapi.PathCertainty, dmsapi.CertaintyRequest{Samples: dmsapi.FromCodecSlice(q), Threshold: 0.5}, &r)
}

func (a api) lookup(q []*codec.Sample) (r dmsapi.LookupResponse, err error) {
	return r, a.post(opLookup, dmsapi.PathLookup, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(q)}, &r)
}

func (a api) recommend(pdf []float64) (r dmsapi.RecommendResponse, err error) {
	return r, a.post(opRecommend, dmsapi.PathRecommend, dmsapi.RecommendRequest{PDF: pdf}, &r)
}

func (a api) ingest(dataset string, docs []*codec.Sample) (r dmsapi.IngestBatchResponse, err error) {
	return r, a.post(opIngest, dmsapi.PathIngestBatch, dmsapi.IngestBatchRequest{Dataset: dataset, Samples: dmsapi.FromCodecSlice(docs)}, &r)
}

// seedCorpus ingests docs in seedBatch-sized batches and returns the IDs.
// The first batch bootstrap-fits the daemon's clustering model.
func (a api) seedCorpus(dataset string, docs []*codec.Sample) ([]string, error) {
	ids := make([]string, 0, len(docs))
	for lo := 0; lo < len(docs); lo += seedBatch {
		batch := docs[lo:min(lo+seedBatch, len(docs))]
		resp, err := a.ingest(dataset, batch)
		if err == nil {
			err = checkIngest(resp, len(batch))
		}
		if err != nil {
			return nil, fmt.Errorf("fairbench: seeding corpus at %d: %w", lo, err)
		}
		ids = append(ids, resp.IDs...)
	}
	return ids, nil
}

func modelID(i int) string { return fmt.Sprintf("m%03d", i) }

// seedZoo registers one small checkpoint per PDF and returns the ID set.
func (a api) seedZoo(pdfs []stats.PDF) (map[string]bool, error) {
	state := zooState()
	ids := make(map[string]bool, len(pdfs))
	for i, pdf := range pdfs {
		if err := a.c.AddModel(modelID(i), state, pdf, nil); err != nil {
			return nil, fmt.Errorf("fairbench: seeding zoo model %d: %w", i, err)
		}
		ids[modelID(i)] = true
	}
	return ids, nil
}

// serveOp executes one read op and checks its answer.
func serveOp(a api, o op, in *serveInputs, query int, zoo map[string]bool) (answer, error) {
	var ans answer
	switch o.kind {
	case opNearest:
		resp, err := a.nearest(in.queries[o.lo : o.lo+query])
		if err != nil {
			return ans, err
		}
		return nearestAnswer(resp), checkNearest(resp, query)
	case opCertainty:
		resp, err := a.certainty(in.queries[o.lo : o.lo+query])
		if err != nil {
			return ans, err
		}
		ans.certainty = resp.Certainty
		return ans, checkCertainty(resp)
	case opRecommend:
		resp, err := a.recommend(o.pdf)
		if err != nil {
			return ans, err
		}
		ans.model = resp.ID
		return ans, checkRecommend(resp, zoo)
	case opLookup:
		resp, err := a.lookup(in.queries[o.lo : o.lo+query])
		if err != nil {
			return ans, err
		}
		return ans, checkLookup(resp)
	}
	return ans, fmt.Errorf("fairbench: %s is not a serving op", o.kind)
}

// referenceOps is how many leading ops cluster_serve replays against a
// single dmsd to hold the cluster == single-node claim.
const referenceOps = 200

// runServe drives serve_hot, serve_scan and cluster_serve: seed, warm up,
// then run the whole op sequence once from one closed-loop client.
func runServe(rc *runCtx) error {
	s := rc.spec
	n := rc.units()
	in := genServeInputs(s, rc.seed, n)
	st := &stack{l: rc.l}
	defer st.stopAll()

	// Daemons. The first exec is the zero of setup_s.
	var shardAddrs []string
	var front *daemon
	var err error
	clustered := s.name == "cluster_serve"
	if clustered {
		for _, id := range []string{"a", "b", "c"} {
			d, err := st.start("shard-"+id, "dmsd", "-node-id", id)
			if err != nil {
				return err
			}
			shardAddrs = append(shardAddrs, d.addr)
		}
		front, err = st.start("router", "dmsrouter", "-shards", shardAddrs[0]+","+shardAddrs[1]+","+shardAddrs[2])
	} else {
		front, err = st.start("dmsd", "dmsd")
		if err == nil {
			shardAddrs = []string{front.addr}
		}
	}
	if err != nil {
		return err
	}
	setupStart := st.daemons[0].execAt

	client, err := newClient(front.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	a := e2eAPI(client)
	if _, err := a.seedCorpus("corpus", in.corpus); err != nil {
		return err
	}
	zoo, err := a.seedZoo(in.zooPDFs)
	if err != nil {
		return err
	}

	// cluster == single-node: the same corpus in one dmsd answers the
	// first ops; the measured run must reproduce those answers.
	var reference []answer
	if clustered {
		reference, err = referenceAnswers(st, in, s.query, min(referenceOps, n))
		if err != nil {
			return err
		}
	}

	rec := &recorder{res: rc.res}
	runOps := func(ops []op) {
		for i, o := range ops {
			if rec.on && i%s.chunk == 0 {
				rec.beginChunk()
			}
			t0 := time.Now()
			ans, err := serveOp(a, o, in, s.query, zoo)
			d := time.Since(t0)
			if err == nil && rec.on && i < len(reference) {
				err = sameAnswer(o.kind, ans, reference[i])
			}
			rec.observe(o.kind, d, err)
		}
	}
	runOps(in.warm) // unrecorded, part of set-up

	before, err := scrapeAll(shardAddrs)
	if err != nil {
		return err
	}
	cpuBefore, _ := st.procTotals()
	rec.on = true
	start := time.Now()
	setup := start.Sub(setupStart)
	runOps(in.ops)
	rec.endChunks()
	cpuAfter, rss := st.procTotals()
	after, err := scrapeAll(shardAddrs)
	if err != nil {
		return err
	}

	rec.setCommon(setup)
	rec.setOpPercentiles()
	res := rc.res
	lookups := rec.ms[opLookup]
	res.set("label_docs_s", float64(len(lookups)*s.query)/(sum(lookups)/1e3), len(lookups))
	d := before.delta(after)
	ops := float64(max(rec.okCount, 1))
	res.set("dmsapi.cache_hit_share", d.ratio("dms_cache_hits_total", "dms_cache_misses_total"), 0)
	setDaemonCounters(res, d, cpuAfter-cpuBefore, rec.okCount)
	res.set("proc.rss_peak_mb", rss, 0)
	if clustered {
		res.set("dmscluster.shard_requests_per_op", d["dms_requests_total"]/ops, rec.okCount)
		router, err := scrape(front.addr)
		if err != nil {
			return err
		}
		res.set("dmscluster.degraded_total", router["dms_router_degraded_responses_total"], 0)
	}
	return nil
}

// setDaemonCounters records the layer metrics read off the daemons over a
// measured phase: /metricsz deltas and CPU time.
func setDaemonCounters(res *result, d counters, cpuMS float64, ops int) {
	res.set("dmsapi.shed_total", d["dms_shed_total"], 0)
	res.set("fairds.index_hit_share", d.ratio("dms_index_hits_total", "dms_index_misses_total"), 0)
	if q := d["dms_index_hits_total"]; q > 0 {
		res.set("vecindex.probed_per_query", d["dms_index_probed_total"]/q, int(q))
	}
	res.set("proc.cpu_ms_per_op", cpuMS/float64(max(ops, 1)), ops)
}

// referenceAnswers seeds a single dmsd with the same corpus and zoo,
// replays the first n ops against it, and stops it again.
func referenceAnswers(st *stack, in *serveInputs, query, n int) ([]answer, error) {
	ref, err := st.start("reference", "dmsd")
	if err != nil {
		return nil, err
	}
	defer ref.stop()
	client, err := newClient(ref.addr)
	if err != nil {
		return nil, err
	}
	defer client.Close()
	a := e2eAPI(client)
	if _, err := a.seedCorpus("corpus", in.corpus); err != nil {
		return nil, err
	}
	zoo, err := a.seedZoo(in.zooPDFs)
	if err != nil {
		return nil, err
	}
	out := make([]answer, n)
	for i, o := range in.ops[:n] {
		if out[i], err = serveOp(a, o, in, query, zoo); err != nil {
			return nil, fmt.Errorf("fairbench: reference op %d (%s): %w", i, o.kind, err)
		}
	}
	return out, nil
}
