package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"fairdms/internal/codec"
)

const (
	readsPerBatch   = 2  // nearest reads after each measured ingest batch
	recoveryCycles  = 3  // SIGKILL → restart → refit → first correct read
	fixedQueries    = 16 // nearest queries whose answers must survive a crash
	sampledIDs      = 64 // acknowledged IDs read back after each crash
	recoveryTimeout = 60 * time.Second
)

// ingestInputs are the generated inputs of ingest_recover.
type ingestInputs struct {
	docs    []*codec.Sample // batches × ingestBatch, warm-up batches first
	queries []*codec.Sample
}

func genIngestInputs(s *spec, seed int64, batches int) *ingestInputs {
	regime := braggRegime(s.patch)
	return &ingestInputs{
		docs:    genCorpus(regime, seed, batches*ingestBatch),
		queries: regime.Generate(stream(seed, streamQueries), queryPoolSize),
	}
}

func (in *ingestInputs) batch(b int) []*codec.Sample {
	return in.docs[b*ingestBatch : (b+1)*ingestBatch]
}

// ingestDriver lands batches beside nearest reads and remembers what was
// acknowledged.
type ingestDriver struct {
	a       api
	rec     *recorder
	in      *ingestInputs
	query   int
	windows *rand.Rand

	acked     []string
	userBytes int // raw sample bytes sent while recording
}

// step ingests one batch, then reads readsPerBatch windows of the query pool.
func (g *ingestDriver) step(b int) {
	batch := g.in.batch(b)
	t0 := time.Now()
	resp, err := g.a.ingest("stream", batch)
	el := time.Since(t0)
	if err == nil {
		err = checkIngest(resp, len(batch))
	}
	g.rec.observe(opIngest, el, err)
	if err != nil {
		return
	}
	g.acked = append(g.acked, resp.IDs...)
	if g.rec.on {
		for _, doc := range batch {
			g.userBytes += len(doc.Data)
		}
	}
	for i := 0; i < readsPerBatch; i++ {
		lo := g.windows.Intn(queryPoolSize - g.query)
		q := g.in.queries[lo : lo+g.query]
		t0 := time.Now()
		resp, err := g.a.nearest(q)
		el := time.Since(t0)
		if err == nil {
			err = checkNearest(resp, len(q))
		}
		g.rec.observe(opNearest, el, err)
	}
}

// runIngestRecover drives a WAL-durable dmsd: batches of documents beside
// nearest reads on the growing corpus, then crash/recover cycles, then (in
// a traced run) one clean stop, which compacts the log into a snapshot, and
// a restart from it.
func runIngestRecover(rc *runCtx) error {
	s := rc.spec
	batches := rc.units()
	warm := batches / 10
	in := genIngestInputs(s, rc.seed, warm+batches)
	bootstrap := in.batch(0) // the batch the daemon bootstrap-fits on

	st := &stack{l: rc.l}
	defer st.stopAll()
	d, err := st.start("dmsd", "dmsd",
		"-wal-dir", filepath.Join(rc.l.tmp, "wal"), "-fsync", "always", "-compact-interval", "0")
	if err != nil {
		return err
	}
	// A clean stop compacts the whole log; nothing reads it after the run.
	defer d.kill()
	client, err := newClient(d.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	a := e2eAPI(client)

	rec := &recorder{res: rc.res}
	g := &ingestDriver{a: a, rec: rec, in: in, query: s.query, windows: stream(rc.seed, streamOps)}
	for b := 0; b < warm; b++ {
		g.step(b)
	}

	before, err := scrape(d.addr)
	if err != nil {
		return err
	}
	cpuBefore, _ := st.procTotals()
	rec.on = true
	start := time.Now()
	setup := start.Sub(d.execAt)
	for b := warm; b < warm+batches; b++ {
		if (b-warm)%s.chunk == 0 {
			rec.beginChunk()
		}
		g.step(b)
	}
	rec.endChunks()
	rec.on = false
	cpuAfter, _ := st.procTotals()
	after, err := scrape(d.addr)
	if err != nil {
		return err
	}
	res := rc.res
	rec.setCommon(setup)
	rec.setOpPercentiles()
	ingestMS := rec.ms[opIngest]
	res.set("ingest_docs_s", float64(len(ingestMS)*ingestBatch)/(sum(ingestMS)/1e3), len(ingestMS))
	delta := before.delta(after)
	res.set("wal.bytes_per_user_byte", delta["dms_wal_bytes_total"]/float64(g.userBytes), 0)
	if n := delta["dms_wal_appends_total"]; n > 0 {
		rc.walRecord = int(delta["dms_wal_bytes_total"] / n)
	}
	res.set("wal.syncs_per_batch", delta["dms_wal_syncs_total"]/float64(len(ingestMS)), len(ingestMS))
	setDaemonCounters(res, delta, cpuAfter-cpuBefore, rec.okCount)

	if res.Failed > 0 {
		return nil // the crash checks need a clean ingest to compare against
	}

	// Pre-crash truth: the fixed queries' answers and a sample of
	// acknowledged IDs.
	fixed := in.queries[:fixedQueries]
	pre, err := a.nearest(fixed)
	if err == nil {
		err = checkNearest(pre, fixedQueries)
	}
	if err != nil {
		return fmt.Errorf("fairbench: pre-crash fixed queries: %w", err)
	}
	want := nearestAnswer(pre)
	acked := g.acked
	idRng := stream(rc.seed, streamZoo)
	ids := make([]string, sampledIDs)
	for i := range ids {
		ids[i] = acked[idRng.Intn(len(acked))]
	}

	// awaitRecovered restarts the daemon and waits until it reports every
	// acknowledged document; it returns when that was observed.
	awaitRecovered := func() (time.Time, error) {
		client.Close() // drop the dead keep-alive connection, or the first request pays a retry backoff
		if err := d.exec(); err != nil {
			return time.Time{}, err
		}
		deadline := time.Now().Add(recoveryTimeout)
		for {
			h, err := d.health()
			if err == nil && h.Samples == len(acked) {
				return time.Now(), nil
			}
			if time.Now().After(deadline) {
				return time.Time{}, fmt.Errorf("fairbench: after restart healthz reports %d samples, %d were acknowledged (last error: %v)", h.Samples, len(acked), err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	var recoveries, replays []float64
	for c := 0; c < recoveryCycles; c++ {
		t0 := time.Now()
		d.kill()
		healthy, err := awaitRecovered()
		if !rec.check("recover: samples == acknowledged", err) {
			break
		}
		// The clustering model is not persisted: reads answer 409
		// not_fitted until the bootstrap batch is fitted again.
		_, err = client.Fit(context.Background(), bootstrap, clusterK)
		if !rec.check("recover: refit on the bootstrap batch", err) {
			break
		}
		post, err := a.nearest(fixed)
		done := time.Now()
		if err == nil {
			err = checkNearest(post, fixedQueries)
		}
		if err == nil {
			err = sameDocs(nearestAnswer(post), want)
		}
		rec.check("recover: fixed queries answer as before the crash", err)
		_, missing, err := client.SamplesByID(context.Background(), ids, true)
		if err == nil && len(missing) > 0 {
			err = fmt.Errorf("%d of %d acknowledged documents unreadable after crash, first %s", len(missing), len(ids), missing[0])
		}
		rec.check("recover: acknowledged documents readable", err)
		recoveries = append(recoveries, done.Sub(t0).Seconds())
		replays = append(replays, healthy.Sub(t0).Seconds())
	}
	if len(recoveries) == recoveryCycles {
		res.set("recovery_s", median(recoveries), len(recoveries))
		res.set("wal.replay_docs_s", float64(len(acked))/median(replays), len(replays))
	}

	// Clean stop: dmsd compacts the log into a snapshot at exit, so this
	// restart loads the snapshot instead of replaying the log. It feeds a
	// layer metric only and costs several seconds, so untraced runs skip it.
	if rc.trace {
		t0 := time.Now()
		d.stop()
		healthy, err := awaitRecovered()
		if rec.check("restart from the compacted snapshot", err) {
			res.set("docstore.snapshot_restart_s", healthy.Sub(t0).Seconds(), 1)
		}
	}
	_, rss := st.procTotals()
	res.set("proc.rss_peak_mb", rss, 0)
	res.set("ok_share", res.okShare(), res.Attempted)
	return nil
}
