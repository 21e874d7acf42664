package main

import (
	"fmt"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
)

const (
	corpusScans   = 16   // pre-drift scans seeded as the labelled corpus
	scanDocs      = 512  // documents per corpus scan
	driftedDocs   = 2048 // unlabelled samples per drifted scan
	labelChunk    = 512  // samples per Certainty and per Lookup
	fineTuneDocs  = 512  // labelled samples a fine-tune trains on
	fineTuneEpoch = 10
	trainPoll     = 2 * time.Millisecond // RapidTrain's 100 ms poll quantises a 105 ms job to 110 or 210 ms
	trainTimeout  = 2 * time.Minute
)

func scanTag(i int) string { return fmt.Sprintf("scan-%02d", i) }

// unlabelled strips the labels a generator attaches, so the daemon sees
// what a beamline sends: pixels only.
func unlabelled(ss []*codec.Sample) []*codec.Sample {
	out := make([]*codec.Sample, len(ss))
	for i, s := range ss {
		out[i] = &codec.Sample{Shape: s.Shape, Dtype: s.Dtype, Data: s.Data}
	}
	return out
}

// awaitTrain submits a job and polls it to a terminal state with a 2 ms
// poll — never Client.RapidTrain. It returns the job and when the terminal
// state was observed.
func awaitTrain(c *dmsapi.Client, req dmsapi.TrainRequest) (dmsapi.TrainJob, time.Time, error) {
	job, err := c.SubmitTrain(req)
	if err != nil {
		return job, time.Time{}, err
	}
	job, err = c.WaitTrain(job.ID, trainPoll, trainTimeout)
	seen := time.Now()
	if err == nil && (job.State != "done" || job.ModelID == "") {
		err = fmt.Errorf("train job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	return job, seen, err
}

// updateInputs are the generated inputs of update_cycle.
type updateInputs struct {
	corpus  [][]*codec.Sample // pre-drift labelled scans
	drifted [][]*codec.Sample // post-drift unlabelled scans, warm-up first
}

func genUpdateInputs(seed int64, scans int) *updateInputs {
	sched := datagen.DefaultBraggDrift(corpusScans)
	in := &updateInputs{corpus: make([][]*codec.Sample, corpusScans), drifted: make([][]*codec.Sample, scans)}
	in.corpus[0] = genCorpus(sched.RegimeAt(0), seed, scanDocs) // its first batch fits the clustering
	rng := stream(seed, streamCorpus)
	for i := 1; i < corpusScans; i++ {
		in.corpus[i] = sched.RegimeAt(i).Generate(rng, scanDocs)
	}
	qrng := stream(seed, streamQueries)
	for i := range in.drifted {
		in.drifted[i] = unlabelled(sched.RegimeAt(corpusScans+i).Generate(qrng, driftedDocs))
	}
	return in
}

// seedUpdate ingests the corpus scans under their tags and cold-trains the
// foundations on scans spread over the pre-drift range, so the zoo can
// warm-start the fine-tunes.
func seedUpdate(a api, in *updateInputs, foundations int, seed int64) error {
	for i, scan := range in.corpus {
		if _, err := a.seedCorpus(scanTag(i), scan); err != nil {
			return err
		}
	}
	for f := 0; f < foundations; f++ {
		scan := f * (corpusScans - 1) / max(foundations-1, 1)
		_, _, err := awaitTrain(a.c, dmsapi.TrainRequest{
			Dataset: scanTag(scan), Model: "braggnn", Epochs: fineTuneEpoch,
			MaxJSD: -1, Seed: seed + int64(f), ModelID: fmt.Sprintf("foundation-%d", f),
		})
		if err != nil {
			return fmt.Errorf("fairbench: training foundation %d: %w", f, err)
		}
	}
	return nil
}

// updateDriver runs update cycles against one client and keeps what the
// update metrics are computed from.
type updateDriver struct {
	a    api
	rec  *recorder
	seed int64
	// onJob, when set, sees every finished fine-tune (the traced pass
	// turns its timestamps into a trainer span).
	onJob func(dmsapi.TrainJob)

	updateS, trainS, queueMS, fitMS, epochs, overshootMS []float64
	warmStarts                                           int
}

// update is the paper's Fig. 5 action for one drifted scan: certainty →
// pseudo-label by lookup → server-side fine-tune → download.
func (u *updateDriver) update(i int, scan []*codec.Sample) {
	a, rec := u.a, u.rec
	t0 := time.Now()
	cresp, err := a.certainty(scan[:labelChunk])
	if err == nil {
		err = checkCertainty(cresp)
	}
	rec.observe(opCertainty, time.Since(t0), err)

	var labelled []dmsapi.Sample
	for lo := 0; lo < len(scan); lo += labelChunk {
		t := time.Now()
		lresp, err := a.lookup(scan[lo : lo+labelChunk])
		el := time.Since(t)
		if err == nil {
			err = checkLookup(lresp)
		}
		rec.observe(opLookup, el, err)
		labelled = append(labelled, lresp.Samples...)
	}
	if len(labelled) < fineTuneDocs {
		rec.check("update: lookups returned enough labelled samples", fmt.Errorf("%d labelled samples, need %d", len(labelled), fineTuneDocs))
		return
	}

	t := time.Now()
	end := a.span(opTrain)
	job, seen, err := awaitTrain(a.c, dmsapi.TrainRequest{
		Samples: labelled[:fineTuneDocs], Model: "braggnn", Epochs: fineTuneEpoch,
		Seed: u.seed + int64(i),
	})
	if err == nil && u.onJob != nil {
		u.onJob(job)
	}
	end()
	rec.observe(opTrain, seen.Sub(t), err)
	if err != nil {
		return
	}
	tc := time.Now()
	end = a.span(opCheckpoint)
	sd, err := a.c.Checkpoint(job.ModelID)
	end()
	if err == nil && (sd == nil || len(sd.Names) == 0) {
		err = fmt.Errorf("checkpoint %s is empty", job.ModelID)
	}
	done := time.Now()
	rec.observe(opCheckpoint, done.Sub(tc), err)
	if err != nil || !rec.on {
		return
	}
	u.updateS = append(u.updateS, done.Sub(t0).Seconds())
	u.trainS = append(u.trainS, seen.Sub(t).Seconds())
	u.queueMS = append(u.queueMS, job.StartedAt.Sub(job.SubmittedAt).Seconds()*1e3)
	u.fitMS = append(u.fitMS, job.FinishedAt.Sub(job.StartedAt).Seconds()*1e3)
	u.overshootMS = append(u.overshootMS, seen.Sub(job.FinishedAt).Seconds()*1e3)
	u.epochs = append(u.epochs, float64(job.Epochs))
	if job.Warm {
		u.warmStarts++
	}
}

func runUpdateCycle(rc *runCtx) error {
	updates := rc.units()
	warm := max(updates/10, 1)
	in := genUpdateInputs(rc.seed, warm+updates)

	st := &stack{l: rc.l}
	defer st.stopAll()
	d, err := st.start("dmsd", "dmsd")
	if err != nil {
		return err
	}
	client, err := newClient(d.addr)
	if err != nil {
		return err
	}
	defer client.Close()
	a := e2eAPI(client)
	if err := seedUpdate(a, in, rc.spec.zoo, rc.seed); err != nil {
		return err
	}

	rec := &recorder{res: rc.res}
	u := &updateDriver{a: a, rec: rec, seed: rc.seed}
	for i := 0; i < warm; i++ {
		u.update(i, in.drifted[i])
	}

	cpuBefore, _ := st.procTotals()
	rec.on = true
	start := time.Now()
	setup := start.Sub(d.execAt)
	for i := warm; i < warm+updates; i++ {
		if (i-warm)%rc.spec.chunk == 0 {
			rec.beginChunk()
		}
		u.update(i, in.drifted[i])
	}
	rec.endChunks()
	cpuAfter, rss := st.procTotals()

	res := rc.res
	rec.setCommon(setup)
	rec.setOpPercentiles()
	if n := len(u.updateS); n > 0 {
		res.set("update_p50_s", percentile(u.updateS, 50), n)
		res.set("train_p50_s", percentile(u.trainS, 50), n)
		res.set("trainer.queue_wait_ms", median(u.queueMS), n)
		res.set("trainer.fit_ms", median(u.fitMS), n)
		res.set("trainer.epoch_ms", sum(u.fitMS)/sum(u.epochs), n)
		res.set("trainer.epochs_run", median(u.epochs), n)
		res.set("trainer.warm_share", float64(u.warmStarts)/float64(n), n)
		res.set("dmsapi.train_wait_overshoot_ms", median(u.overshootMS), n)
	}
	lookups := rec.ms[opLookup]
	res.set("label_docs_s", float64(len(lookups)*labelChunk)/(sum(lookups)/1e3), len(lookups))
	res.set("proc.cpu_ms_per_op", (cpuAfter-cpuBefore)/float64(max(rec.okCount, 1)), rec.okCount)
	res.set("proc.rss_peak_mb", rss, 0)
	return nil
}
