// Package trainer is the rapid-train subsystem: an asynchronous
// training-job manager and the one in-process implementation of the paper's
// Fig. 5 action. The daemon serves it as /v1/train, and the examples and
// integration tests run a Manager directly over their own services:
//
//  1. a job names a labeled dataset (an already-ingested scan tag or
//     inline samples, such as a pseudo-labelled fairds lookup);
//  2. the manager computes its cluster PDF and asks the fairMS zoo for
//     the closest prior checkpoint under the JSD threshold;
//  3. training warm-starts from that checkpoint (Fit), falling back to
//     a cold start when nothing is close enough — the paper's
//     train-from-scratch branch;
//  4. on success the resulting checkpoint is registered back into the zoo
//     under that PDF, with lineage metadata (parent ID, epochs run,
//     converged-at epoch), the model-provenance thread of the
//     FAIR-for-HEDM follow-up.
//
// Jobs run on a bounded worker pool fed by a bounded queue; a full queue
// surfaces ErrQueueFull so the HTTP front end can shed with 429. Jobs are
// cancellable mid-epoch (nn.TrainConfig.Stop) and report live per-epoch
// train/val loss curves while running. A panicking job marks itself
// failed without taking a worker (or the daemon) down.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/hdrhist"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
)

// Defaults for Spec and Config zero values.
const (
	DefaultWorkers   = 2
	DefaultQueue     = 8
	DefaultHistory   = 512
	DefaultEpochs    = 50
	DefaultBatchSize = 16
	DefaultHidden    = 32

	// DefaultJSDThreshold is the distance beyond which no zoo model is a
	// suitable foundation and a job trains from scratch.
	DefaultJSDThreshold = 0.5
	// DefaultFineTuneLR and DefaultScratchLR are the learning rates of the
	// two paths; fine-tuning conventionally uses the smaller one.
	DefaultFineTuneLR = 2e-4
	DefaultScratchLR  = 1e-3
	// DefaultValFraction of a job's data is held out for convergence
	// tracking.
	DefaultValFraction = 0.2
)

// Model kinds a Spec may name.
const (
	ModelBraggNN = "braggnn" // conv regressor over square patches, 2-wide center labels
	ModelMLP     = "mlp"     // generic Linear→ReLU→Linear regressor over flat features
)

// State is a job's lifecycle position. Terminal states are Done, Failed,
// and Canceled.
type State string

// The job state machine: Queued → Running → Done | Failed | Canceled
// (a queued job may also go straight to Canceled).
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Sentinel errors surfaced to the API layer.
var (
	// ErrQueueFull means the job queue is saturated; the front end maps it
	// to HTTP 429.
	ErrQueueFull = errors.New("trainer: job queue full")
	// ErrUnknownJob means no job has the given ID.
	ErrUnknownJob = errors.New("trainer: unknown job")
	// ErrShutdown means the manager no longer accepts jobs.
	ErrShutdown = errors.New("trainer: manager shut down")
)

// Spec describes one training job. Zero values pick defaults.
type Spec struct {
	// Dataset selects already-ingested samples by their ingest tag.
	// Ignored when Samples is non-empty.
	Dataset string
	// Samples are inline labeled samples to train on.
	Samples []*codec.Sample
	// Model names the architecture: ModelBraggNN (default) or ModelMLP.
	Model string
	// Hidden is the MLP hidden width (default DefaultHidden).
	Hidden int
	// Epochs caps the run (default DefaultEpochs).
	Epochs int
	// BatchSize is the mini-batch size (default DefaultBatchSize).
	BatchSize int
	// LR overrides the learning rate; 0 picks DefaultFineTuneLR for warm
	// starts and DefaultScratchLR for cold ones.
	LR float64
	// TargetLoss stops the run once validation loss reaches it (0 disables).
	TargetLoss float64
	// Patience stops after this many epochs without val improvement.
	Patience int
	// MaxJSD is the warm-start distance threshold: 0 means
	// DefaultJSDThreshold, negative forces a cold start.
	MaxJSD float64
	// ValFraction of the data is held out (default DefaultValFraction).
	ValFraction float64
	// Seed drives model init, shuffling, and the holdout split.
	Seed int64
	// ModelID names the zoo entry registered on success ("" derives it
	// from the job ID).
	ModelID string
	// Meta is attached to the zoo entry; the lineage keys
	// (fairms.MetaParent etc.) are overwritten by the trainer.
	Meta map[string]string
}

func (s *Spec) defaults() {
	if s.Model == "" {
		s.Model = ModelBraggNN
	}
	if s.Hidden <= 0 {
		s.Hidden = DefaultHidden
	}
	if s.Epochs <= 0 {
		s.Epochs = DefaultEpochs
	}
	if s.BatchSize <= 0 {
		s.BatchSize = DefaultBatchSize
	}
	if s.MaxJSD == 0 {
		s.MaxJSD = DefaultJSDThreshold
	}
	if s.ValFraction <= 0 || s.ValFraction >= 1 {
		s.ValFraction = DefaultValFraction
	}
}

// Status is a point-in-time snapshot of a job, safe to hold after the job
// moves on.
type Status struct {
	ID      string
	State   State
	Model   string
	Dataset string // ingest tag ("" for inline submissions)
	Samples int    // resolved sample count (0 until the job starts)

	Warm       bool    // warm-started from a zoo checkpoint
	Foundation string  // zoo ID of the warm-start parent ("" when cold)
	JSD        float64 // divergence of the foundation's training data

	Epochs      int // epochs actually run so far
	Converged   bool
	ConvergedAt int // 1-based epoch val loss first met TargetLoss (0 = never)
	TrainLoss   []float64
	ValLoss     []float64

	ModelID string // zoo entry registered on success
	Err     string // failure reason (State == StateFailed)

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// job is the mutable server-side record behind a Status.
type job struct {
	mu     sync.Mutex
	status Status // guarded by mu
	spec   Spec
	cancel context.CancelFunc
	ctx    context.Context
	// done is closed, under mu, as the status turns terminal.
	done chan struct{}
}

// end moves the job into a terminal state and wakes its waiters. The
// caller holds mu and has checked that the state is not terminal yet.
//
// lint:holds j.mu
func (j *job) end(state State, errMsg string) {
	j.status.State = state
	j.status.Err = errMsg
	j.status.FinishedAt = time.Now()
	close(j.done)
}

// snapshot copies the job's status, deep-copying the loss curves so the
// caller's view cannot race the training loop's appends.
func (j *job) snapshot() *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	st.TrainLoss = append([]float64(nil), j.status.TrainLoss...)
	st.ValLoss = append([]float64(nil), j.status.ValLoss...)
	return &st
}

// Config wires a Manager to the two services and tunes its pool.
type Config struct {
	// DS is the data service jobs resolve datasets and PDFs against.
	// Required.
	DS *fairds.Service
	// Zoo is the model zoo consulted for warm starts and receiving
	// finished checkpoints. Required.
	Zoo *fairms.Zoo
	// Workers is the parallel-training bound (default DefaultWorkers).
	Workers int
	// Queue bounds jobs waiting for a worker; Submit past it returns
	// ErrQueueFull (default DefaultQueue).
	Queue int
	// history bounds retained jobs: once the total exceeds it, the oldest
	// terminal jobs (and their loss curves) are forgotten, so a long-lived
	// daemon's memory stays flat under sustained train load. Live jobs are
	// never pruned. Zero means DefaultHistory; only tests set it.
	history int
	// OnRegister, when set, fires after a job's checkpoint lands in the
	// zoo — the dmsapi server uses it to invalidate its recommend cache.
	OnRegister func(modelID string)
	// Obs, when set, receives the trainer's metrics: per-epoch wall time
	// under dms_train_epoch_seconds. Registration happens in New, so a
	// registry must not already hold that name.
	Obs *obs.Registry
	// OnTrace, when set, fires as each job reaches a terminal state with
	// its wall time, its failure (nil when done or canceled) and its span
	// tree (resolve_data → collate → pdf → recommend → fit, holding one
	// epoch span per epoch → register, with fairds stage spans underneath)
	// — the dmsapi server hands these to the same retention step as
	// serving traffic.
	OnTrace func(d time.Duration, err error, tr *obs.Trace)
	// Logger receives job-lifecycle events; nil silences them.
	Logger *obs.Logger
}

// Stats is a point-in-time snapshot of the manager's gauges — the
// dms_train_* families of dmsd's /metricsz.
type Stats struct {
	Workers    int
	QueueCap   int
	QueueDepth int
	Active     int
	Submitted  int64
	Completed  int64
	Failed     int64
	Canceled   int64
	WarmStarts int64
	ColdStarts int64
}

// Manager runs training jobs on a bounded worker pool. Safe for
// concurrent use.
type Manager struct {
	cfg Config

	mu sync.Mutex
	// cond signals workers that pending changed (or the manager closed).
	cond *sync.Cond
	// pending is the FIFO of live queued jobs. Canceled-while-queued jobs
	// are removed immediately, so a canceled job never pins a queue slot:
	// Submit's backpressure is len(pending) against cfg.Queue.
	pending []*job          // guarded by mu
	jobs    map[string]*job // guarded by mu
	order   []string        // guarded by mu
	closed  bool            // guarded by mu

	wg      sync.WaitGroup
	started atomic.Bool
	nextID  atomic.Int64

	active     atomic.Int64
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	canceled   atomic.Int64
	warmStarts atomic.Int64
	coldStarts atomic.Int64

	// epochHist records per-epoch training wall time (nil without cfg.Obs).
	epochHist *hdrhist.Histogram

	// testHookBeforeTrain, when set, runs inside the worker just before
	// training starts — the panic-injection point for crash-safety tests.
	testHookBeforeTrain func(id string)
}

// New validates the config and builds a stopped manager; call Start to
// spin up the worker pool.
func New(cfg Config) (*Manager, error) {
	if cfg.DS == nil || cfg.Zoo == nil {
		return nil, errors.New("trainer: manager needs both a data service and a model zoo")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.history <= 0 {
		cfg.history = DefaultHistory
	}
	m := &Manager{
		cfg:  cfg,
		jobs: make(map[string]*job),
	}
	if cfg.Obs != nil {
		m.epochHist = cfg.Obs.Histogram("dms_train_epoch_seconds", "training epoch wall time")
	}
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// Start launches the worker pool. Calling it twice is a no-op.
func (m *Manager) Start() {
	if m.started.Swap(true) {
		return
	}
	for i := 0; i < m.cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Shutdown stops accepting jobs, cancels every non-terminal one (queued
// jobs are canceled in place, never picked up), and waits (up to ctx) for
// the workers to drain.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	pending := m.pending
	m.pending = nil
	running := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		running = append(running, j)
	}
	m.cond.Broadcast()
	m.mu.Unlock()

	for _, j := range pending {
		m.finalize(j, StateCanceled, "")
	}
	for _, j := range running {
		j.mu.Lock()
		if !j.status.State.Terminal() && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}

	if !m.started.Load() {
		return nil
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("trainer: shutdown: %w", ctx.Err())
	}
}

// Submit validates and enqueues a job, returning its initial status.
// A saturated queue returns ErrQueueFull without enqueueing. An explicit
// ModelID that the zoo already holds, or that a queued or running job of
// this manager names, returns an error wrapping fairms.ErrDuplicateID
// before any epoch is spent on a checkpoint that could not be registered.
// Both checks run under the lock that enqueues, and a job registers before
// it turns terminal, so of two submissions naming one free ID exactly one
// is accepted.
func (m *Manager) Submit(spec Spec) (*Status, error) {
	spec.defaults()
	if len(spec.Samples) == 0 && spec.Dataset == "" {
		return nil, errors.New("trainer: job needs inline samples or a dataset tag")
	}
	if spec.Model != ModelBraggNN && spec.Model != ModelMLP {
		return nil, fmt.Errorf("trainer: unknown model %q (want %s or %s)",
			spec.Model, ModelBraggNN, ModelMLP)
	}
	for i, smp := range spec.Samples {
		if len(smp.Label) == 0 {
			return nil, fmt.Errorf("trainer: inline sample %d has no label", i)
		}
	}

	id := fmt.Sprintf("job-%06d", m.nextID.Add(1))
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: Status{
			ID:          id,
			State:       StateQueued,
			Model:       spec.Model,
			Dataset:     spec.Dataset,
			Samples:     len(spec.Samples),
			SubmittedAt: time.Now(),
		},
	}
	if spec.Dataset != "" && len(spec.Samples) > 0 {
		j.status.Dataset = "" // inline samples win; don't report a misleading tag
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
		return nil, ErrShutdown
	}
	if err := m.heldLocked(spec.ModelID); err != nil {
		m.mu.Unlock()
		cancel()
		return nil, err
	}
	if len(m.pending) >= m.cfg.Queue {
		m.mu.Unlock()
		cancel()
		return nil, ErrQueueFull
	}
	m.pending = append(m.pending, j)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.cond.Signal()
	m.mu.Unlock()
	m.submitted.Add(1)
	m.cfg.Logger.Info("train job queued",
		"job", id, "model", spec.Model, "dataset", spec.Dataset, "inline_samples", len(spec.Samples))
	return j.snapshot(), nil
}

// heldLocked reports, as an error wrapping fairms.ErrDuplicateID, whether
// modelID is named by a live job or already in the zoo. The live jobs are
// checked first: a job's checkpoint is in the zoo before its done channel
// closes, so an ID never slips between the two checks. The caller holds
// m.mu; live jobs are never pruned from m.jobs.
//
// lint:holds m.mu
func (m *Manager) heldLocked(modelID string) error {
	if modelID == "" {
		return nil
	}
	for id, j := range m.jobs {
		select {
		case <-j.done:
			continue
		default:
		}
		if j.spec.ModelID == modelID {
			return fmt.Errorf("trainer: %w: model %q is named by live job %s", fairms.ErrDuplicateID, modelID, id)
		}
	}
	if _, err := m.cfg.Zoo.Get(modelID); err == nil {
		return fmt.Errorf("trainer: %w: model %q already in zoo", fairms.ErrDuplicateID, modelID)
	}
	return nil
}

// Get returns a snapshot of the job with the given ID. Terminal jobs
// older than the history cap have been pruned and report ErrUnknownJob.
func (m *Manager) Get(id string) (*Status, error) {
	return m.Wait(context.Background(), id, 0)
}

// Wait is Get once the job is terminal, d has passed or ctx is done,
// whichever comes first: the long-poll behind GET /v1/train/{id}?wait=.
// An unknown ID reports ErrUnknownJob at once.
func (m *Manager) Wait(ctx context.Context, id string, d time.Duration) (*Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-ctx.Done():
		}
	}
	return j.snapshot(), nil
}

// List returns snapshots of every job in submission order.
func (m *Manager) List() []*Status {
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]*Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// Cancel requests cancellation of a job. Queued jobs are canceled
// immediately and release their queue slot; running jobs stop mid-epoch
// at the next batch boundary. A running job that has already passed its
// commit point (checkpoint registration underway) completes as done.
// Canceling a terminal job is a no-op returning its final status.
func (m *Manager) Cancel(id string) (*Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Drop it from the pending FIFO so the slot frees immediately; a job
	// already popped by a worker simply isn't there.
	for i, p := range m.pending {
		if p == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()

	j.mu.Lock()
	var canceledQueued bool
	switch j.status.State {
	case StateQueued:
		// Inline rather than via finalize: the decide-and-act must be
		// atomic under j.mu, or a worker that popped the job before our
		// pending removal could promote it to Running between the check
		// and the transition.
		m.countTerminal(StateCanceled)
		j.end(StateCanceled, "")
		canceledQueued = true
	case StateRunning:
		j.cancel() // the worker observes ctx and finalizes the state
		m.cfg.Logger.Info("train job cancellation requested mid-run", "job", id)
	}
	j.mu.Unlock()
	if canceledQueued {
		j.cancel()
		m.cfg.Logger.Info("train job canceled while queued", "job", id)
		m.pruneHistory() // this terminal transition bypassed finalize
	}
	return j.snapshot(), nil
}

// Stats snapshots the manager's gauges.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	depth := len(m.pending)
	m.mu.Unlock()
	return Stats{
		Workers:    m.cfg.Workers,
		QueueCap:   m.cfg.Queue,
		QueueDepth: depth,
		Active:     int(m.active.Load()),
		Submitted:  m.submitted.Load(),
		Completed:  m.completed.Load(),
		Failed:     m.failed.Load(),
		Canceled:   m.canceled.Load(),
		WarmStarts: m.warmStarts.Load(),
		ColdStarts: m.coldStarts.Load(),
	}
}

// ---------------------------------------------------------------------------
// Worker pool

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 { // closed and drained
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()

		j.mu.Lock()
		if j.status.State != StateQueued { // canceled while waiting
			j.mu.Unlock()
			continue
		}
		j.status.State = StateRunning
		j.status.StartedAt = time.Now()
		j.mu.Unlock()

		m.active.Add(1)
		m.runSafely(j)
		m.active.Add(-1)
	}
}

// runSafely isolates one job: a panic anywhere in the training pipeline
// marks the job failed and returns the worker to the pool instead of
// crashing the daemon. The terminal state comes from run's own outcome,
// not a fresh ctx poll — once a job passes its commit point (checkpoint
// registration), a cancel racing the finish cannot flip a registered job
// to "canceled".
func (m *Manager) runSafely(j *job) {
	defer func() {
		if r := recover(); r != nil {
			m.finalize(j, StateFailed, fmt.Sprintf("panic: %v", r))
		}
	}()
	committed, err := m.run(j)
	switch {
	case err != nil && j.ctx.Err() != nil:
		m.finalize(j, StateCanceled, "")
	case err != nil:
		m.finalize(j, StateFailed, err.Error())
	case committed:
		m.finalize(j, StateDone, "")
	default:
		m.finalize(j, StateCanceled, "")
	}
}

// finalize moves a job into a terminal state exactly once and bumps the
// matching counter.
func (m *Manager) finalize(j *job, state State, errMsg string) {
	j.mu.Lock()
	if j.status.State.Terminal() {
		j.mu.Unlock()
		return
	}
	m.countTerminal(state)
	j.end(state, errMsg)
	id := j.status.ID
	j.mu.Unlock()
	j.cancel() // release the context either way

	switch state {
	case StateDone:
		m.cfg.Logger.Info("train job done", "job", id)
	case StateFailed:
		m.cfg.Logger.Warn("train job failed", "job", id, "err", errMsg)
	case StateCanceled:
		m.cfg.Logger.Info("train job canceled", "job", id)
	}
	m.pruneHistory()
}

// countTerminal bumps the counter of a terminal state. The caller holds
// the job's mu and has not yet stored the state, so whoever observes the
// job as finished also finds it counted in Stats.
func (m *Manager) countTerminal(state State) {
	switch state {
	case StateDone:
		m.completed.Add(1)
	case StateFailed:
		m.failed.Add(1)
	case StateCanceled:
		m.canceled.Add(1)
	}
}

// pruneHistory forgets the oldest terminal jobs once the total exceeds
// cfg.History, keeping a long-lived manager's footprint flat (every
// retained job pins its loss curves and sample references). Live jobs
// are never pruned; Get on a pruned ID reports ErrUnknownJob.
func (m *Manager) pruneHistory() {
	m.mu.Lock()
	defer m.mu.Unlock()
	excess := len(m.order) - m.cfg.history
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		terminal := j.status.State.Terminal()
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// run executes the paper's rapid-train action for one job. It returns
// committed=true once the checkpoint is registered (the job's commit
// point); committed=false with a nil error means the job observed its
// cancellation and stopped cleanly.
func (m *Manager) run(j *job) (committed bool, err error) {
	if j.ctx.Err() != nil { // canceled between pickup and start
		return false, nil
	}
	if m.testHookBeforeTrain != nil {
		m.testHookBeforeTrain(j.status.ID)
	}
	spec := j.spec

	// Jobs get the same span treatment as requests: a trace is built only
	// when someone is listening (cfg.OnTrace), otherwise every span call
	// below no-ops on a nil trace. The defer fires on every terminal path —
	// done, failed, canceled, even a panic unwinding through runSafely.
	// The stages hand over: stage opens the next stage's span before it
	// ends the current one and its open child, so no statement of the job
	// runs between two stage spans.
	var tr *obs.Trace
	if m.cfg.OnTrace != nil {
		tr = obs.NewTrace("", false)
	}
	jobStart := time.Now()
	var root, cur, sub *obs.Span
	ctx := obs.NewContext(j.ctx, tr)
	stage := func(name string) context.Context {
		sctx, next := obs.StartSpan(ctx, name) // ctx is the root's by now
		sub.End()
		cur.End()
		cur, sub = next, nil
		return sctx
	}
	defer func() {
		sub.End()
		cur.End()
		root.End()
		if tr != nil {
			m.cfg.OnTrace(time.Since(jobStart), err, tr)
		}
	}()
	ctx, root = obs.StartSpan(ctx, "train_job") // the first stage follows at once

	// Resolve the training set: inline samples or a stored dataset tag.
	samples := spec.Samples
	if len(samples) == 0 {
		samples, err = m.cfg.DS.DatasetSamples(stage("resolve_data"), spec.Dataset)
		if err != nil {
			return false, err
		}
		// Stored datasets get the same label gate as inline submissions:
		// without it, an unlabeled corpus would "train" against an empty
		// target and register a degenerate checkpoint as done.
		for i, smp := range samples {
			if len(smp.Label) == 0 {
				return false, fmt.Errorf("trainer: dataset %q sample %d has no label", spec.Dataset, i)
			}
		}
		j.mu.Lock()
		j.status.Samples = len(samples)
		j.mu.Unlock()
	}
	if len(samples) < 2 {
		return false, fmt.Errorf("trainer: %d labeled samples is not enough to train on (need >= 2)", len(samples))
	}

	stage("collate")
	x, y, model, err := collate(spec, samples)
	if err != nil {
		return false, err
	}

	// The dataset's cluster PDF — both the warm-start query key and the
	// signature the finished checkpoint is registered under — and the id of
	// the fit it was computed under.
	pdf, fit, err := m.cfg.DS.DatasetPDFContext(stage("pdf"), x)
	if err != nil {
		return false, err
	}

	// Warm start: closest zoo checkpoint under the JSD threshold; any
	// incompatibility (or an empty zoo) degrades to the paper's
	// train-from-scratch branch.
	warm := false
	foundation := ""
	jsd := 0.0
	if spec.MaxJSD > 0 {
		stage("recommend")
		rec, ok, _ := m.cfg.Zoo.BestFit(fit, pdf) // pdf is the data service's own: valid
		if ok && rec.JSD <= spec.MaxJSD {
			if err := model.LoadState(rec.Record.State); err != nil {
				m.cfg.Logger.Warn("foundation incompatible, cold-starting",
					"job", j.status.ID, "foundation", rec.Record.ID, "err", err)
			} else {
				warm = true
				foundation = rec.Record.ID
				jsd = rec.JSD
			}
		}
	}
	j.mu.Lock()
	j.status.Warm = warm
	j.status.Foundation = foundation
	j.status.JSD = jsd
	j.mu.Unlock()
	if warm {
		m.warmStarts.Add(1)
	} else {
		m.coldStarts.Add(1)
	}

	// One epoch span per epoch run, handed over the same way. Fit has no
	// epoch-start hook, so the first opens with the fit (taking the split
	// and the optimiser's set-up), and the first Stop poll after OnEpoch
	// opens the next (billing each shuffle to the epoch before it).
	fctx := stage("fit")
	_, sub = obs.StartSpan(fctx, "epoch")
	epochDone := false
	epochStart := time.Now()
	res := Fit(model, x, y, warm, spec, func(epoch int, trainLoss, valLoss float64) bool {
		if m.epochHist != nil {
			now := time.Now()
			m.epochHist.Record(now.Sub(epochStart))
			epochStart = now
		}
		epochDone = true
		j.mu.Lock()
		j.status.Epochs = epoch
		j.status.TrainLoss = append(j.status.TrainLoss, trainLoss)
		j.status.ValLoss = append(j.status.ValLoss, valLoss)
		j.mu.Unlock()
		return true
	}, func() bool {
		if epochDone {
			_, next := obs.StartSpan(fctx, "epoch")
			sub.End()
			sub, epochDone = next, false
		}
		return j.ctx.Err() != nil
	})
	// The commit point: a cancel observed here (or earlier, mid-epoch)
	// stops cleanly with nothing registered; past it, the job registers
	// and completes as done even if a cancel races the finish.
	if res.Stopped || j.ctx.Err() != nil {
		return false, nil
	}

	// Register the checkpoint with its lineage — what makes the zoo a
	// provenance graph, not just a flat index. The reserved keys are
	// always owned by the trainer: user-supplied values are dropped even
	// when a key does not apply (a cold start must not inherit a bogus
	// "parent").
	stage("register")
	convergedAt := 0
	if res.Converged {
		convergedAt = res.ConvergedAt(spec.TargetLoss)
	}
	j.mu.Lock()
	j.status.Converged = res.Converged
	j.status.ConvergedAt = convergedAt
	j.mu.Unlock()
	modelID := spec.ModelID
	if modelID == "" {
		modelID = j.status.ID + "-model"
	}
	meta := make(map[string]string, len(spec.Meta)+5)
	for k, v := range spec.Meta {
		meta[k] = v
	}
	delete(meta, fairms.MetaParent)
	delete(meta, fairms.MetaConvergedAt)
	delete(meta, fairms.MetaFit)
	if fit != "" {
		meta[fairms.MetaFit] = fit
	}
	meta[fairms.MetaWarmStart] = strconv.FormatBool(warm)
	meta[fairms.MetaEpochs] = strconv.Itoa(res.Epochs)
	if warm {
		meta[fairms.MetaParent] = foundation
	}
	if convergedAt > 0 {
		meta[fairms.MetaConvergedAt] = strconv.Itoa(convergedAt)
	}
	if err := m.cfg.Zoo.Add(modelID, model.State(), pdf, meta); err != nil {
		return false, fmt.Errorf("trainer: registering %s: %w", modelID, err)
	}
	j.mu.Lock()
	j.status.ModelID = modelID
	j.mu.Unlock()
	if m.cfg.OnRegister != nil {
		m.cfg.OnRegister(modelID)
	}
	m.cfg.Logger.Info("train job registered its checkpoint",
		"job", j.status.ID, "model_id", modelID, "warm", warm, "foundation", foundation, "epochs", res.Epochs)
	return true, nil
}

// Fit is the fit step every job runs, exported so the figures and examples
// that compare fine-tuning with retraining measure this loop. It applies
// spec's defaults, trains model (any architecture, warm when it holds a
// foundation's weights) with Adam at spec.LR, or else DefaultFineTuneLR or
// DefaultScratchLR, on all but Split(x, y, spec.ValFraction, spec.Seed)'s
// held-out rows. onEpoch and stop may be nil, as in nn.TrainConfig.
func Fit(model *nn.Model, x, y *tensor.Tensor, warm bool, spec Spec,
	onEpoch func(epoch int, trainLoss, valLoss float64) bool, stop func() bool) *nn.TrainResult {
	spec.defaults()
	lr := spec.LR
	if lr <= 0 {
		if warm {
			lr = DefaultFineTuneLR
		} else {
			lr = DefaultScratchLR
		}
	}
	trainX, trainY, valX, valY := Split(x, y, spec.ValFraction, spec.Seed)
	return nn.Fit(model, nn.NewAdam(model.Params(), lr), trainX, trainY, valX, valY, nn.TrainConfig{
		Epochs:     spec.Epochs,
		BatchSize:  spec.BatchSize,
		TargetLoss: spec.TargetLoss,
		Patience:   spec.Patience,
		Seed:       spec.Seed,
		OnEpoch:    onEpoch,
		Stop:       stop,
	})
}

// Split partitions (x, y) into train and validation subsets: valFrac of
// the rows, at least one and at most all but one, drawn by a permutation
// seeded with seed. It is a job's holdout, exported so a client that fits
// outside a Manager splits identically.
func Split(x, y *tensor.Tensor, valFrac float64, seed int64) (tx, ty, vx, vy *tensor.Tensor) {
	n := x.Dim(0)
	nVal := int(float64(n) * valFrac)
	if nVal < 1 {
		nVal = 1
	}
	if nVal >= n {
		nVal = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	val := perm[:nVal]
	train := perm[nVal:]
	return nn.Gather(x, train), nn.Gather(y, train), nn.Gather(x, val), nn.Gather(y, val)
}

// collate turns the job's samples into its input tensor, target tensor and
// freshly initialised network.
func collate(spec Spec, samples []*codec.Sample) (x, y *tensor.Tensor, model *nn.Model, err error) {
	x, err = fairds.Collate(samples)
	if err != nil {
		return nil, nil, nil, err
	}
	y, model, err = buildModel(spec, x, samples)
	return x, y, model, err
}

// buildModel constructs the job's network and target tensor from its spec
// and resolved samples.
func buildModel(spec Spec, x *tensor.Tensor, samples []*codec.Sample) (*tensor.Tensor, *nn.Model, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	features := x.Dim(1)
	switch spec.Model {
	case ModelBraggNN:
		patch := int(math.Round(math.Sqrt(float64(features))))
		if patch < 3 || patch*patch != features {
			return nil, nil, fmt.Errorf("trainer: braggnn needs square patches, got %d features", features)
		}
		y := tensor.New(len(samples), 2)
		for i, smp := range samples {
			if len(smp.Label) < 2 {
				return nil, nil, fmt.Errorf("trainer: braggnn sample %d has %d label values, need 2",
					i, len(smp.Label))
			}
			// Normalize pixel-space centers into the network's (0,1) range,
			// matching models.BraggNN.Targets.
			y.Set(smp.Label[0]/float64(patch-1), i, 0)
			y.Set(smp.Label[1]/float64(patch-1), i, 1)
		}
		return y, models.NewBraggNN(rng, patch).Net, nil
	case ModelMLP:
		labelW := len(samples[0].Label)
		if labelW == 0 {
			return nil, nil, errors.New("trainer: mlp needs labeled samples (first sample has no label)")
		}
		y := tensor.New(len(samples), labelW)
		for i, smp := range samples {
			if len(smp.Label) != labelW {
				return nil, nil, fmt.Errorf("trainer: sample %d has %d label values, expected %d",
					i, len(smp.Label), labelW)
			}
			for c, v := range smp.Label {
				y.Set(v, i, c)
			}
		}
		model := nn.Sequential(
			nn.NewLinear(rng, features, spec.Hidden),
			nn.NewReLU(),
			nn.NewLinear(rng, spec.Hidden, labelW),
		)
		return y, model, nil
	default:
		return nil, nil, fmt.Errorf("trainer: unknown model %q", spec.Model)
	}
}
