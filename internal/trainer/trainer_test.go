package trainer

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
)

const (
	testFeatures = 8
	testHidden   = 16
)

// meanSamples builds labeled samples whose label is the feature mean — a
// problem a small MLP learns quickly and deterministically.
func meanSamples(seed int64, n int) []*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*codec.Sample, n)
	for i := range out {
		vals := make([]float64, testFeatures)
		sum := 0.0
		for j := range vals {
			vals[j] = rng.Float64()
			sum += vals[j]
		}
		out[i] = codec.SampleFromFloats(vals, []int{testFeatures}, codec.F64,
			[]float64{sum / testFeatures})
	}
	return out
}

// newFixture builds a fitted data service, an empty zoo, and a started
// manager over them.
func newFixture(t *testing.T, workers, queue int) (*Manager, *fairds.Service, *fairms.Zoo) {
	t.Helper()
	return newFixtureWith(t, Config{Workers: workers, Queue: queue})
}

// newFixtureWith is newFixture for a test that sets more of the Config; DS
// and Zoo are filled in.
func newFixtureWith(t *testing.T, cfg Config) (*Manager, *fairds.Service, *fairms.Zoo) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ds, err := fairds.New(
		embed.NewAutoencoder(rng, testFeatures, 16, 4),
		docstore.NewStore().Collection("trainer-test"),
		fairds.Config{Seed: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	x, err := fairds.Collate(meanSamples(99, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.FitClustersK(x, 2); err != nil {
		t.Fatal(err)
	}
	zoo := fairms.NewZoo()
	cfg.DS, cfg.Zoo = ds, zoo
	return start(t, cfg), ds, zoo
}

// start builds and starts a manager that the test's cleanup shuts down.
func start(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return m
}

// waitState polls a job until pred holds or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, timeout time.Duration, pred func(*Status) bool) *Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not reach the expected state in %v; last: %+v", id, timeout, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitTerminal(t *testing.T, m *Manager, id string) *Status {
	t.Helper()
	return waitState(t, m, id, 60*time.Second, func(st *Status) bool { return st.State.Terminal() })
}

// mlpSpec is the shared small training job used across tests.
func mlpSpec(samples []*codec.Sample) Spec {
	return Spec{
		Samples:    samples,
		Model:      ModelMLP,
		Hidden:     testHidden,
		Epochs:     400,
		BatchSize:  16,
		LR:         0.01,
		TargetLoss: 5e-3,
		Seed:       7,
	}
}

// TestColdThenWarm runs the acceptance scenario at the manager level: a
// cold-started job converges and registers; a second job on the same data
// warm-starts from it, carries parent lineage, and converges in fewer
// epochs (the Figs. 13–14 claim).
func TestColdThenWarm(t *testing.T) {
	m, _, zoo := newFixture(t, 2, 8)
	data := meanSamples(1, 80)

	spec := mlpSpec(data)
	spec.ModelID = "cold-model"
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := waitTerminal(t, m, st.ID)
	if cold.State != StateDone {
		t.Fatalf("cold job ended %s: %s", cold.State, cold.Err)
	}
	if cold.Warm {
		t.Fatal("first job warm-started against an empty zoo")
	}
	if !cold.Converged || cold.Epochs < 2 {
		t.Fatalf("cold job should converge after >= 2 epochs, got converged=%v epochs=%d",
			cold.Converged, cold.Epochs)
	}
	if len(cold.TrainLoss) != cold.Epochs || len(cold.ValLoss) != cold.Epochs {
		t.Fatalf("loss curves (%d, %d) do not match %d epochs",
			len(cold.TrainLoss), len(cold.ValLoss), cold.Epochs)
	}
	rec, err := zoo.Get("cold-model")
	if err != nil {
		t.Fatalf("cold checkpoint not registered: %v", err)
	}
	if rec.WarmStarted() || rec.Parent() != "" {
		t.Fatalf("cold lineage wrong: %+v", rec.Meta)
	}
	if n, ok := rec.Epochs(); !ok || n != cold.Epochs {
		t.Fatalf("lineage epochs %d/%v, want %d", n, ok, cold.Epochs)
	}
	if e, ok := rec.ConvergedAt(); !ok || e != cold.ConvergedAt {
		t.Fatalf("lineage converged_at %d/%v, want %d", e, ok, cold.ConvergedAt)
	}

	spec.ModelID = "warm-model"
	st, err = m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := waitTerminal(t, m, st.ID)
	if warm.State != StateDone {
		t.Fatalf("warm job ended %s: %s", warm.State, warm.Err)
	}
	if !warm.Warm || warm.Foundation != "cold-model" {
		t.Fatalf("second job should warm-start from cold-model, got warm=%v foundation=%q",
			warm.Warm, warm.Foundation)
	}
	if !warm.Converged || warm.Epochs >= cold.Epochs {
		t.Fatalf("warm start should converge in fewer epochs: warm %d vs cold %d (converged=%v)",
			warm.Epochs, cold.Epochs, warm.Converged)
	}
	wrec, err := zoo.Get("warm-model")
	if err != nil {
		t.Fatal(err)
	}
	if !wrec.WarmStarted() || wrec.Parent() != "cold-model" {
		t.Fatalf("warm lineage wrong: %+v", wrec.Meta)
	}

	stats := m.Stats()
	if stats.Completed != 2 || stats.WarmStarts != 1 || stats.ColdStarts != 1 {
		t.Fatalf("stats %+v, want 2 completed / 1 warm / 1 cold", stats)
	}
}

// TestDatasetSelector trains on an already-ingested dataset tag instead of
// inline samples.
func TestDatasetSelector(t *testing.T) {
	m, ds, _ := newFixture(t, 1, 4)
	if _, err := ds.IngestLabeled(meanSamples(2, 48), "scan-07"); err != nil {
		t.Fatal(err)
	}
	spec := mlpSpec(nil)
	spec.Dataset = "scan-07"
	spec.Epochs = 5
	spec.TargetLoss = 0
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("dataset job ended %s: %s", final.State, final.Err)
	}
	if final.Samples != 48 || final.Dataset != "scan-07" {
		t.Fatalf("resolved %d samples from %q, want 48 from scan-07", final.Samples, final.Dataset)
	}
}

// TestJobTraceNamesTheWholeJob checks the span tree a listener gets for a
// finished job: the root's direct children — resolve_data, collate, pdf,
// recommend, fit, register — account for the root's wall time to within a
// few percent, and fit holds exactly one epoch span per epoch run, which in
// turn account for the fit.
func TestJobTraceNamesTheWholeJob(t *testing.T) {
	dumps := make(chan obs.TraceDump, 1)
	m, ds, _ := newFixtureWith(t, Config{Workers: 1, Queue: 4,
		OnTrace: func(_ time.Duration, err error, tr *obs.Trace) {
			if err != nil {
				t.Errorf("job failed: %v", err)
			}
			dumps <- tr.Dump()
		}})
	if _, err := ds.IngestLabeled(meanSamples(2, 256), "scan-08"); err != nil {
		t.Fatal(err)
	}
	const epochs = 12
	spec := mlpSpec(nil)
	spec.Dataset = "scan-08"
	spec.Epochs = epochs
	spec.TargetLoss = 0
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateDone || final.Epochs != epochs {
		t.Fatalf("job ended %s after %d epochs: %s", final.State, final.Epochs, final.Err)
	}
	d := <-dumps

	root, fit := -1, -1
	for i, sp := range d.Spans {
		switch sp.Name {
		case "train_job":
			root = i
		case "fit":
			fit = i
		}
	}
	if root < 0 || fit < 0 || d.Spans[fit].Parent != root {
		t.Fatalf("no train_job → fit in %v", d.SpanNames())
	}
	children := map[string]int64{}
	var epochSpans, epochUS int64
	for _, sp := range d.Spans {
		switch sp.Parent {
		case root:
			children[sp.Name] += sp.DurUS
		case fit:
			if sp.Name != "epoch" {
				t.Errorf("fit has a child span %q", sp.Name)
			}
			epochSpans++
			epochUS += sp.DurUS
		}
	}
	var covered int64
	for _, name := range []string{"resolve_data", "collate", "pdf", "recommend", "fit", "register"} {
		us, ok := children[name]
		if !ok {
			t.Errorf("train_job has no %q child (children: %v)", name, children)
		}
		covered += us
	}
	if len(children) != 6 {
		t.Errorf("train_job children %v, want exactly the six stages", children)
	}
	if total := d.Spans[root].DurUS; float64(covered) < 0.95*float64(total) {
		t.Errorf("stages cover %d of the job's %d µs: %v", covered, total, children)
	}
	if epochSpans != epochs {
		t.Errorf("fit holds %d epoch spans, want %d", epochSpans, epochs)
	}
	if fitUS := d.Spans[fit].DurUS; float64(epochUS) < 0.9*float64(fitUS) {
		t.Errorf("epoch spans cover %d of the fit's %d µs", epochUS, fitUS)
	}
}

// TestQueueSaturation fills the worker and the queue, then asserts the
// next submission is rejected with ErrQueueFull (the API's 429).
func TestQueueSaturation(t *testing.T) {
	m, _, _ := newFixture(t, 1, 1)
	release := make(chan struct{})
	var once sync.Once
	m.testHookBeforeTrain = func(string) { <-release }
	defer once.Do(func() { close(release) })

	spec := mlpSpec(meanSamples(3, 32))
	spec.Epochs = 2
	spec.TargetLoss = 0
	running, err := m.Submit(spec) // occupies the single worker
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, 10*time.Second, func(st *Status) bool { return st.State == StateRunning })

	queued, err := m.Submit(spec) // fills the single queue slot
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec); err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("third submit should hit ErrQueueFull, got %v", err)
	}
	if st := m.Stats(); st.QueueDepth != 1 || st.Active != 1 {
		t.Fatalf("stats %+v, want depth 1 / active 1", st)
	}

	once.Do(func() { close(release) })
	if st := waitTerminal(t, m, running.ID); st.State != StateDone {
		t.Fatalf("running job ended %s: %s", st.State, st.Err)
	}
	if st := waitTerminal(t, m, queued.ID); st.State != StateDone {
		t.Fatalf("queued job ended %s: %s", st.State, st.Err)
	}
}

// TestCancelMidRun cancels a long-running job and expects it to stop
// promptly (mid-epoch) without registering a checkpoint.
func TestCancelMidRun(t *testing.T) {
	m, _, zoo := newFixture(t, 1, 4)
	spec := mlpSpec(meanSamples(4, 256))
	spec.BatchSize = 4
	spec.Epochs = 10_000_000 // far longer than the test will allow
	spec.TargetLoss = 0
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, 10*time.Second, func(s *Status) bool { return s.State == StateRunning })

	begin := time.Now()
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, 5*time.Second, func(s *Status) bool { return s.State.Terminal() })
	if final.State != StateCanceled {
		t.Fatalf("canceled job ended %s: %s", final.State, final.Err)
	}
	if wait := time.Since(begin); wait > 3*time.Second {
		t.Fatalf("cancellation took %v, want mid-epoch promptness", wait)
	}
	if final.ModelID != "" || zoo.Len() != 0 {
		t.Fatal("canceled job must not register a checkpoint")
	}
	if m.Stats().Canceled != 1 {
		t.Fatalf("stats %+v, want 1 canceled", m.Stats())
	}

	// Canceling a terminal job is a no-op returning the final status.
	again, err := m.Cancel(st.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %v, %+v", err, again)
	}
}

// TestCancelQueued cancels a job before any worker picks it up and
// asserts the cancellation releases its queue slot immediately (a
// canceled tombstone must not keep shedding new submissions).
func TestCancelQueued(t *testing.T) {
	m, _, _ := newFixture(t, 1, 1)
	release := make(chan struct{})
	m.testHookBeforeTrain = func(string) { <-release }
	defer close(release)

	spec := mlpSpec(meanSamples(5, 32))
	spec.Epochs = 2
	spec.TargetLoss = 0
	blocker, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, 10*time.Second, func(s *Status) bool { return s.State == StateRunning })
	queued, err := m.Submit(spec) // fills the single queue slot
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(queued.ID)
	if err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %v, state %s", err, st.State)
	}
	if depth := m.Stats().QueueDepth; depth != 0 {
		t.Fatalf("queue depth %d after canceling the only queued job", depth)
	}
	// The freed slot accepts new work while the worker is still blocked.
	refill, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("submit after queued-cancel should reuse the slot: %v", err)
	}
	if st, err := m.Get(refill.ID); err != nil || st.State != StateQueued {
		t.Fatalf("refill job: %v, state %+v", err, st)
	}
}

// TestPanicSafety asserts a panicking job is marked failed and the worker
// keeps serving subsequent jobs.
func TestPanicSafety(t *testing.T) {
	m, _, _ := newFixture(t, 1, 4)
	armed := true
	m.testHookBeforeTrain = func(id string) {
		if armed {
			armed = false
			panic("injected crash in job " + id)
		}
	}

	spec := mlpSpec(meanSamples(6, 32))
	spec.Epochs = 3
	spec.TargetLoss = 0
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitTerminal(t, m, st.ID)
	if failed.State != StateFailed || !strings.Contains(failed.Err, "panic") {
		t.Fatalf("panicking job ended %s: %q", failed.State, failed.Err)
	}

	// The worker must have survived: the next job completes.
	st, err = m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, m, st.ID); final.State != StateDone {
		t.Fatalf("post-panic job ended %s: %s", final.State, final.Err)
	}
	if s := m.Stats(); s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats %+v, want 1 failed / 1 completed", s)
	}
}

// TestSubmitValidation covers the synchronous rejections.
func TestSubmitValidation(t *testing.T) {
	m, _, _ := newFixture(t, 1, 2)
	if _, err := m.Submit(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := m.Submit(Spec{Dataset: "x", Model: "transformer"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	unlabeled := meanSamples(7, 4)
	unlabeled[2].Label = nil
	if _, err := m.Submit(Spec{Samples: unlabeled, Model: ModelMLP}); err == nil {
		t.Fatal("unlabeled inline sample accepted")
	}
	if _, err := m.Get("job-999999"); err == nil {
		t.Fatal("unknown job id accepted")
	}
	if _, err := m.Cancel("job-999999"); err == nil {
		t.Fatal("cancel of unknown job accepted")
	}
}

// TestHistoryPruning asserts old terminal jobs are forgotten past the
// history cap, so a long-lived manager's footprint stays flat.
func TestHistoryPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := fairds.New(
		embed.NewAutoencoder(rng, testFeatures, 16, 4),
		docstore.NewStore().Collection("trainer-history"),
		fairds.Config{Seed: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	x, err := fairds.Collate(meanSamples(99, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.FitClustersK(x, 2); err != nil {
		t.Fatal(err)
	}
	m := start(t, Config{DS: ds, Zoo: fairms.NewZoo(), Workers: 1, Queue: 8, history: 3})

	spec := mlpSpec(meanSamples(9, 16))
	spec.Epochs = 1
	spec.TargetLoss = 0
	var first, last string
	for i := 0; i < 5; i++ {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.ID
		}
		last = st.ID
		if final := waitTerminal(t, m, st.ID); final.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, final.State, final.Err)
		}
	}
	if got := len(m.List()); got > 3 {
		t.Fatalf("history holds %d jobs, cap is 3", got)
	}
	if _, err := m.Get(first); err == nil {
		t.Fatalf("oldest job %s survived pruning", first)
	}
	if _, err := m.Get(last); err != nil {
		t.Fatalf("newest job %s was pruned: %v", last, err)
	}
}

// TestShutdownRejectsSubmit asserts a shut-down manager refuses new work.
func TestShutdownRejectsSubmit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, err := fairds.New(
		embed.NewAutoencoder(rng, testFeatures, 16, 4),
		docstore.NewStore().Collection("trainer-shutdown"),
		fairds.Config{Seed: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{DS: ds, Zoo: fairms.NewZoo(), Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(mlpSpec(meanSamples(8, 8))); err == nil {
		t.Fatal("submit accepted after shutdown")
	}
}

// TestSubmitRefusesLiveModelID: while a queued or running job names a model
// ID, a second submission naming it is refused with fairms.ErrDuplicateID
// at once, instead of being accepted and failing at its register step.
func TestSubmitRefusesLiveModelID(t *testing.T) {
	m, _, _ := newFixture(t, 1, 4)
	release := make(chan struct{})
	var once sync.Once
	m.testHookBeforeTrain = func(string) { <-release }
	defer once.Do(func() { close(release) })

	spec := mlpSpec(meanSamples(10, 32))
	spec.Epochs = 2
	spec.TargetLoss = 0
	spec.ModelID = "running-id"
	running, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, 10*time.Second, func(st *Status) bool { return st.State == StateRunning })
	queuedSpec := spec
	queuedSpec.ModelID = "queued-id"
	queued, err := m.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{spec, queuedSpec} {
		if _, err := m.Submit(s); !errors.Is(err, fairms.ErrDuplicateID) {
			t.Fatalf("second submit naming %q: got %v, want ErrDuplicateID", s.ModelID, err)
		}
	}

	once.Do(func() { close(release) })
	for _, id := range []string{running.ID, queued.ID} {
		if st := waitTerminal(t, m, id); st.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Err)
		}
	}
	// Registered, the ID is the zoo's.
	if _, err := m.Submit(spec); !errors.Is(err, fairms.ErrDuplicateID) {
		t.Fatalf("submit naming a registered model: got %v, want ErrDuplicateID", err)
	}
	if s := m.Stats(); s.Submitted != 2 || s.Completed != 2 || s.Failed != 0 {
		t.Fatalf("stats %+v, want 2 submitted and completed, none failed", s)
	}
}

// statEmbedder is a deterministic, training-free embedder: block means of
// the image. Sufficient to separate width/amplitude regimes.
type statEmbedder struct{ dim int }

func (e statEmbedder) Dim() int { return e.dim }
func (e statEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), e.dim)
	feats := x.Dim(1)
	chunk := (feats + e.dim - 1) / e.dim
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		for d := 0; d < e.dim; d++ {
			lo, hi := d*chunk, min((d+1)*chunk, feats)
			s := 0.0
			for _, v := range row[lo:hi] {
				s += v
			}
			if hi > lo {
				out.Set(s/float64(hi-lo), i, d)
			}
		}
	}
	return out
}

const testPatch = 9

func regimeAt(i int) datagen.BraggRegime {
	r := datagen.DefaultBraggRegime()
	r.Patch = testPatch
	r.WidthMean += 0.5 * float64(i)
	r.AmpMean += 4 * float64(i)
	return r
}

// newRegimeFixture is the paper's setting in miniature: labeled history
// from Bragg regimes 0..2 in the store, and a zoo holding one BraggNN per
// regime ("model-r0".."model-r2"), registered under its regime's PDF.
func newRegimeFixture(t *testing.T) (*Manager, *fairds.Service, *fairms.Zoo) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	ds, err := fairds.New(statEmbedder{dim: 5}, docstore.NewStore().Collection("peaks"), fairds.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var all []*codec.Sample
	perRegime := make([][]*codec.Sample, 3)
	for i := range perRegime {
		perRegime[i] = regimeAt(i).Generate(rng, 60)
		all = append(all, perRegime[i]...)
	}
	xAll, err := fairds.Collate(all)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.FitClustersK(xAll, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.IngestLabeled(all, "history"); err != nil {
		t.Fatal(err)
	}

	zoo := fairms.NewZoo()
	for i, hist := range perRegime {
		m := models.NewBraggNN(rng, testPatch)
		x, _ := fairds.Collate(hist)
		y := tensor.New(len(hist), 2)
		for r, s := range hist {
			y.Set(s.Label[0], r, 0)
			y.Set(s.Label[1], r, 1)
		}
		nn.Fit(m.Net, nn.NewAdam(m.Net.Params(), 2e-3), x, m.Targets(y), x, m.Targets(y),
			nn.TrainConfig{Epochs: 15, BatchSize: 32, Seed: 3})
		pdf, err := ds.DatasetPDF(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := zoo.Add(fmt.Sprintf("model-r%d", i), m.Net.State(), pdf, nil); err != nil {
			t.Fatal(err)
		}
	}
	return start(t, Config{DS: ds, Zoo: zoo, Workers: 1}), ds, zoo
}

// lookupAndTrain is the Fig. 5 action on new unlabeled input: PDF-matched
// pseudo-labelling, then one job on the labels it found. It returns the
// finished job and the record it registered.
func lookupAndTrain(t *testing.T, m *Manager, ds *fairds.Service, zoo *fairms.Zoo, input []*codec.Sample, spec Spec) (*Status, *fairms.Record) {
	t.Helper()
	x, err := fairds.Collate(input)
	if err != nil {
		t.Fatal(err)
	}
	labeled, err := ds.LookupLabeled(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != len(input) {
		t.Fatalf("lookup found %d labeled samples, want %d", len(labeled), len(input))
	}
	spec.Samples = labeled
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Err)
	}
	rec, err := zoo.Get(final.ModelID)
	if err != nil {
		t.Fatal(err)
	}
	return final, rec
}

// TestRapidTrainFineTunesFromZoo: a regime-1 input, pseudo-labelled from
// the store, is keyed by the PDF of its labeled draw, which picks the
// regime-1 foundation; the job warm-starts from it and records it as the
// new model's parent.
func TestRapidTrainFineTunesFromZoo(t *testing.T) {
	m, ds, zoo := newRegimeFixture(t)
	input := regimeAt(1).Generate(rand.New(rand.NewSource(9)), 40)
	st, rec := lookupAndTrain(t, m, ds, zoo, input, Spec{MaxJSD: 0.9, Epochs: 10, BatchSize: 32, Seed: 8, ModelID: "updated-1"})
	if !st.Warm || st.Foundation != "model-r1" {
		t.Fatalf("warm=%v foundation=%q, want a warm start from model-r1 (same regime)", st.Warm, st.Foundation)
	}
	if rec.Meta[fairms.MetaParent] != "model-r1" {
		t.Fatalf("registered lineage %v, want parent model-r1", rec.Meta)
	}
}

// TestRapidTrainScratchWhenZooTooFar: a MaxJSD below every foundation's
// distance trains from scratch and registers a model with no parent.
func TestRapidTrainScratchWhenZooTooFar(t *testing.T) {
	m, ds, zoo := newRegimeFixture(t)
	input := regimeAt(2).Generate(rand.New(rand.NewSource(10)), 30)
	st, rec := lookupAndTrain(t, m, ds, zoo, input, Spec{MaxJSD: 1e-9, Epochs: 10, BatchSize: 32, Seed: 8, ModelID: "scratch-1"})
	if st.Warm || st.Foundation != "" {
		t.Fatalf("warm=%v foundation=%q, want a cold start below the threshold", st.Warm, st.Foundation)
	}
	if _, ok := rec.Meta[fairms.MetaParent]; ok {
		t.Fatalf("cold-started model records a parent: %v", rec.Meta)
	}
}

// TestFitIsTheJobsFitStep: a job and a direct Fit call on the same
// collated samples, warm flag and spec train the same bits, cold and warm
// from a zoo checkpoint alike — so a caller of Fit measures the loop that
// /v1/train runs.
func TestFitIsTheJobsFitStep(t *testing.T) {
	m, _, zoo := newFixture(t, 1, 4)
	data := meanSamples(1, 80)
	spec := mlpSpec(data)
	spec.Epochs = 30
	spec.TargetLoss = 0
	spec.defaults()

	var foundation *nn.StateDict
	for _, warm := range []bool{false, true} {
		spec.ModelID = fmt.Sprintf("job-warm-%v", warm)
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		job := waitTerminal(t, m, st.ID)
		if job.State != StateDone || job.Warm != warm || (warm && job.Foundation != "job-warm-false") {
			t.Fatalf("job ended %s (warm %v from %q), want done with warm %v: %s",
				job.State, job.Warm, job.Foundation, warm, job.Err)
		}
		rec, err := zoo.Get(spec.ModelID)
		if err != nil {
			t.Fatal(err)
		}

		x, y, model, err := collate(spec, data)
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			if err := model.LoadState(foundation); err != nil {
				t.Fatal(err)
			}
		}
		res := Fit(model, x, y, warm, spec, nil, nil)
		if res.Epochs != job.Epochs {
			t.Fatalf("warm %v: Fit ran %d epochs, the job %d", warm, res.Epochs, job.Epochs)
		}
		got, err := model.State().Bytes()
		if err != nil {
			t.Fatal(err)
		}
		want, err := rec.State.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("warm %v: Fit's weights differ from the job's", warm)
		}
		foundation = rec.State
	}
}

func TestSplitSizes(t *testing.T) {
	x := tensor.New(10, 2)
	y := tensor.New(10, 1)
	tx, ty, vx, vy := Split(x, y, 0.2, 1)
	if tx.Dim(0) != 8 || vx.Dim(0) != 2 || ty.Dim(0) != 8 || vy.Dim(0) != 2 {
		t.Fatalf("split sizes %d/%d", tx.Dim(0), vx.Dim(0))
	}
	// Tiny sets still keep at least one row on each side.
	tx, _, vx, _ = Split(tensor.New(2, 1), tensor.New(2, 1), 0.9, 1)
	if tx.Dim(0) < 1 || vx.Dim(0) < 1 {
		t.Fatal("degenerate split")
	}
}
