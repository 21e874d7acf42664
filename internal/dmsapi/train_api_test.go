package dmsapi

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/fairms"
)

// trainFeatures must divide cleanly into idEmbedder's chunking (dim 6).
const trainFeatures = 12

// trainMeanSamples builds labeled samples whose label is the feature
// mean — a regression problem a small MLP learns quickly, keeping the
// end-to-end training tests fast and deterministic.
func trainMeanSamples(seed int64, n int) []*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*codec.Sample, n)
	for i := range out {
		vals := make([]float64, trainFeatures)
		sum := 0.0
		for j := range vals {
			vals[j] = rng.Float64()
			sum += vals[j]
		}
		out[i] = codec.SampleFromFloats(vals, []int{trainFeatures}, codec.F64,
			[]float64{sum / trainFeatures})
	}
	return out
}

func trainRequest(modelID string) TrainRequest {
	return TrainRequest{
		Dataset:    "scan-00",
		Model:      "mlp",
		Hidden:     16,
		Epochs:     400,
		BatchSize:  16,
		LR:         0.01,
		TargetLoss: 5e-3,
		Seed:       7,
		ModelID:    modelID,
	}
}

// TestTrainEndToEnd is the PR's acceptance scenario over live TCP: a
// client ingests a dataset, submits a cold training job against its tag,
// then runs RapidTrain on the same data — which warm-starts from the
// first job's checkpoint, converges in fewer epochs (Figs. 13–14),
// registers with parent lineage, and surfaces in the /statsz train block.
func TestTrainEndToEnd(t *testing.T) {
	zoo := fairms.NewZoo()
	_, client := startServer(t, ServerConfig{Zoo: zoo, TrainWorkers: 2})

	if _, err := client.Ingest("scan-00", trainMeanSamples(1, 80)); err != nil {
		t.Fatal(err)
	}

	// Cold start: the zoo is empty, so no foundation exists.
	job, err := client.SubmitTrain(trainRequest("cold-model"))
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "queued" && job.State != "running" {
		t.Fatalf("fresh job state %q", job.State)
	}
	cold, err := client.WaitTrain(job.ID, 20*time.Millisecond, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if cold.State != "done" {
		t.Fatalf("cold job ended %s: %s", cold.State, cold.Error)
	}
	if cold.Warm {
		t.Fatal("cold job warm-started against an empty zoo")
	}
	if !cold.Converged || cold.Epochs < 2 {
		t.Fatalf("cold job: converged=%v epochs=%d", cold.Converged, cold.Epochs)
	}
	if cold.Samples != 80 || cold.Dataset != "scan-00" {
		t.Fatalf("cold job resolved %d samples from %q", cold.Samples, cold.Dataset)
	}
	if len(cold.TrainLoss) != cold.Epochs || len(cold.ValLoss) != cold.Epochs {
		t.Fatalf("detail view curves (%d, %d) vs %d epochs",
			len(cold.TrainLoss), len(cold.ValLoss), cold.Epochs)
	}

	// Warm start via the Fig. 5 convenience: submit, wait, download.
	warm, sd, err := client.RapidTrain(trainRequest("warm-model"), 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Warm || warm.Foundation != "cold-model" {
		t.Fatalf("RapidTrain should warm-start from cold-model: warm=%v foundation=%q",
			warm.Warm, warm.Foundation)
	}
	if !warm.Converged || warm.Epochs >= cold.Epochs {
		t.Fatalf("warm-start epochs %d should undercut cold %d", warm.Epochs, cold.Epochs)
	}
	if sd == nil || len(sd.Values) == 0 {
		t.Fatal("RapidTrain returned no checkpoint")
	}

	// Lineage landed in the zoo.
	rec, err := zoo.Get("warm-model")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Parent() != "cold-model" || !rec.WarmStarted() {
		t.Fatalf("warm lineage: %+v", rec.Meta)
	}
	if n, ok := rec.Epochs(); !ok || n != warm.Epochs {
		t.Fatalf("lineage epochs %d/%v, want %d", n, ok, warm.Epochs)
	}

	// The list view carries both jobs, curves omitted.
	jobs, err := client.TrainJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if len(j.TrainLoss) != 0 || len(j.ValLoss) != 0 {
			t.Fatalf("list view leaked loss curves for %s", j.ID)
		}
	}

	// /statsz surfaces the train gauges.
	st, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Train == nil {
		t.Fatal("/statsz has no train block with training enabled")
	}
	if st.Train.Submitted != 2 || st.Train.Completed != 2 ||
		st.Train.WarmStarts != 1 || st.Train.ColdStarts != 1 {
		t.Fatalf("train gauges %+v", st.Train)
	}
	if st.Train.Workers != 2 {
		t.Fatalf("train workers %d, want 2", st.Train.Workers)
	}
}

// TestTrainQueueSaturationAndCancel fills the single worker and the
// single queue slot, asserts the next submission is shed with 429, then
// cancels both jobs over HTTP and sees them stop promptly.
func TestTrainQueueSaturationAndCancel(t *testing.T) {
	_, client := startServer(t, ServerConfig{TrainWorkers: 1, TrainQueue: 1})
	if _, err := client.Ingest("scan-00", trainMeanSamples(2, 64)); err != nil {
		t.Fatal(err)
	}

	// A job that runs until canceled: huge epoch budget, no target loss.
	longReq := TrainRequest{
		Dataset:   "scan-00",
		Model:     "mlp",
		Hidden:    16,
		Epochs:    10_000_000,
		BatchSize: 4,
		Seed:      3,
	}
	running, err := client.SubmitTrain(longReq)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := client.TrainJob(running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started: %s", running.ID, j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	queued, err := client.SubmitTrain(longReq)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.SubmitTrain(longReq)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit should shed with 429, got %v", err)
	}

	st, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Train == nil || st.Train.QueueDepth != 1 || st.Train.Active != 1 {
		t.Fatalf("train gauges under saturation: %+v", st.Train)
	}

	for _, id := range []string{queued.ID, running.ID} {
		if _, err := client.CancelTrain(id); err != nil {
			t.Fatal(err)
		}
		final, err := client.WaitTrain(id, 10*time.Millisecond, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != "canceled" {
			t.Fatalf("job %s ended %s after cancel", id, final.State)
		}
		if final.ModelID != "" {
			t.Fatalf("canceled job %s registered %s", id, final.ModelID)
		}
	}
}

// TestTrainRejections covers the synchronous error mapping: 409 before
// the bootstrap fit, 404 for unknown jobs and malformed actions, 400 for
// bad specs, and 404s when training is disabled.
func TestTrainRejections(t *testing.T) {
	_, client := startServer(t, ServerConfig{TrainWorkers: 1})

	// No ingest yet: clustering unfitted, so submissions conflict.
	_, err := client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp"})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("pre-bootstrap submit: want 409, got %v", err)
	}

	if _, err := client.Ingest("scan-00", trainMeanSamples(3, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err = client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "transformer"}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("unknown model: want 400, got %v", err)
	}
	if _, err = client.TrainJob("job-404404"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %v", err)
	}
	if _, err = client.CancelTrain("job-404404"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown job: want 404, got %v", err)
	}
	// A model_id the zoo already holds is the same 409 conflict POST
	// /v1/models answers, at submit: no job is created, so nothing trains.
	if err := client.AddModel("taken", dummyState(1), []float64{0.25, 0.25, 0.25, 0.25}, nil); err != nil {
		t.Fatal(err)
	}
	_, err = client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp", ModelID: "taken"})
	if !errors.As(err, &se) || se.Code != http.StatusConflict || se.ErrCode != CodeConflict || !errors.Is(err, ErrDuplicateModel) {
		t.Fatalf("duplicate model_id: want 409 conflict, got %v", err)
	}
	if list, err := client.TrainJobs(); err != nil || len(list) != 0 {
		t.Fatalf("rejected submissions left jobs behind: %+v, err %v", list, err)
	}
	if st, err := client.ServerStats(); err != nil || st.Train == nil || st.Train.Submitted != 0 {
		t.Fatalf("rejected submissions counted as submitted: %+v, err %v", st.Train, err)
	}
	// POST /v1/train/{id} without the :cancel action is not a route.
	if err = client.postJSON("/v1/train/job-000001", struct{}{}, &TrainJob{}); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("actionless POST: want 404, got %v", err)
	}

	// A server without TrainWorkers has no training plane at all.
	_, disabled := startServer(t, ServerConfig{})
	if _, err := disabled.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp"}); !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("disabled training: want 404, got %v", err)
	}
	stats, err := disabled.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Train != nil {
		t.Fatal("/statsz train block present with training disabled")
	}
}

// waitOvershoot bounds how long after a job's FinishedAt a wait= long-poll
// may answer. The terminal transition wakes the handler directly, so the
// answer usually takes a few ms; a wait that missed the wake-up would hold
// until MaxTrainWait, about 9.7 s after these jobs finish. A tenth of
// MaxTrainWait keeps those two apart with room for a loaded -race run,
// where a tens-of-ms bound missed in a fifth of runs.
const waitOvershoot = MaxTrainWait / 10

// TestTrainWaitAnswersAtFinish: a GET /v1/train/{id}?wait= that is waiting
// when the job finishes answers with the terminal status within a few ms
// of FinishedAt, both for a job that runs to done and one cancelled
// mid-wait; and the wait holds no admission slot, so with MaxInFlight 1 an
// ordinary read still gets through beside it.
func TestTrainWaitAnswersAtFinish(t *testing.T) {
	_, client := startServer(t, ServerConfig{TrainWorkers: 1, MaxInFlight: 1})
	if _, err := client.Ingest("scan-00", trainMeanSamples(4, 64)); err != nil {
		t.Fatal(err)
	}
	waitFor := func(id string) (job TrainJob, sent, seen time.Time) {
		t.Helper()
		sent = time.Now()
		if err := client.getJSON(TrainJobPath(id, MaxTrainWait), &job); err != nil {
			t.Fatal(err)
		}
		seen = time.Now()
		if !job.Terminal() {
			t.Fatalf("job %s answered %s after %v, not terminal", id, job.State, seen.Sub(sent))
		}
		if job.FinishedAt.Before(sent) {
			t.Fatalf("job %s finished before the wait began; lengthen it", id)
		}
		if over := seen.Sub(job.FinishedAt); over > waitOvershoot {
			t.Fatalf("job %s: answered %v after it finished, want under %v", id, over, waitOvershoot)
		}
		return job, sent, seen
	}

	// Runs to done: a few hundred ms of epochs without a target loss.
	done, err := client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp", Hidden: 16, Epochs: 3000, BatchSize: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if job, _, _ := waitFor(done.ID); job.State != "done" {
		t.Fatalf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}

	// Runs until cancelled, which happens mid-wait.
	long, err := client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp", Hidden: 16, Epochs: 10_000_000, BatchSize: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		if _, err := client.Models(); err != nil { // beside the wait, under MaxInFlight 1
			t.Errorf("a read beside the long-poll: %v", err)
		}
		if _, err := client.CancelTrain(long.ID); err != nil {
			t.Errorf("cancel: %v", err)
		}
	}()
	if job, sent, seen := waitFor(long.ID); job.State != "canceled" || seen.Sub(sent) < 100*time.Millisecond {
		t.Fatalf("job %s answered %s after %v", job.ID, job.State, seen.Sub(sent))
	}
}

// TestTrainWaitUnknownAndMalformed: an unknown job is a 404 at once, not
// after the wait; a wait that is not a duration is a 400.
func TestTrainWaitUnknownAndMalformed(t *testing.T) {
	_, client := startServer(t, ServerConfig{TrainWorkers: 1})
	var se *StatusError
	start := time.Now()
	err := client.getJSON(TrainJobPath("job-404404", MaxTrainWait), &TrainJob{})
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("unknown job answered after %v, want at once", d)
	}
	for _, q := range []string{"soon", "-1s"} {
		if err := client.getJSON("/v1/train/job-000001?wait="+q, &TrainJob{}); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("wait=%s: want 400, got %v", q, err)
		}
	}
}

// TestTrainWaitFreesHandlerOnCancel: a client that gives up on a long-poll
// frees the handler then, not at the end of the wait.
func TestTrainWaitFreesHandlerOnCancel(t *testing.T) {
	srv, client := startServer(t, ServerConfig{TrainWorkers: 1})
	if _, err := client.Ingest("scan-00", trainMeanSamples(5, 64)); err != nil {
		t.Fatal(err)
	}
	long, err := client.SubmitTrain(TrainRequest{Dataset: "scan-00", Model: "mlp", Hidden: 16, Epochs: 10_000_000, BatchSize: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.CancelTrain(long.ID) })

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- client.DoJSON(ctx, "GET", TrainJobPath(long.ID, MaxTrainWait), nil, &TrainJob{}) }()
	busy := func() bool { return srv.InFlight() > 0 }
	for deadline := time.Now().Add(5 * time.Second); !busy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the long-poll never reached the handler")
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled long-poll returned %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); busy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the handler still runs 2s after its client went away")
		}
	}
}
