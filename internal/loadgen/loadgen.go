// Package loadgen is a closed-loop load generator for a live dmsd: a pool
// of workers drives the daemon with a weighted mix of the serving-path
// operations (batch ingest, certainty, nearest-label, recommend, and
// end-to-end server-side train jobs), measures
// client-side latency into lock-free histograms (internal/hdrhist), and
// emits a machine-readable report — the BENCH_dmsapi.json artifact that
// records the serving tier's performance trajectory across PRs.
//
// Closed-loop means each worker issues its next request only after the
// previous one completes, so offered load adapts to server capacity
// instead of overrunning it; throughput × latency ≈ worker count
// (Little's law) is the sanity check on every report.
package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
	"fairdms/internal/fsx"
	"fairdms/internal/hdrhist"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/stats"
)

// Op is one operation type in the workload mix.
type Op string

// The drivable operations. OpIngestBatch lands BatchSize documents per
// request through /v1/data/ingest:batch; the read ops exercise the three
// serving paths of the paper's action loop (certainty trigger, nearest
// label reuse, model recommendation). OpTrain submits one small inline
// /v1/train job and polls it to a terminal state, so its latency is the
// end-to-end server-side training time (queue wait included) — weight it
// low: every completed job also registers a checkpoint in the zoo.
const (
	OpIngestBatch Op = "ingest_batch"
	OpCertainty   Op = "certainty"
	OpNearest     Op = "nearest"
	OpRecommend   Op = "recommend"
	OpTrain       Op = "train"
)

var allOps = []Op{OpIngestBatch, OpCertainty, OpNearest, OpRecommend, OpTrain}

// Config tunes a load-generation run. Zero values pick defaults.
type Config struct {
	// Addr is the dmsd address ("host:port"). Required.
	Addr string
	// Workers is the closed-loop concurrency (default 4).
	Workers int
	// Duration bounds the measured phase (default 5s).
	Duration time.Duration
	// Mix weights operations (default 1:2:4:4 ingest:certainty:nearest:
	// recommend — reads dominate, as in the paper's serving phase; train
	// is excluded by default because each op runs a whole training job).
	// Ops with weight <= 0 are excluded.
	Mix map[Op]int
	// TrainEpochs caps each train op's job (default 3 — enough to cross
	// the whole submit→queue→train→register path without dominating the
	// run).
	TrainEpochs int
	// BatchSize is documents per ingest_batch request (default 64).
	BatchSize int
	// QuerySize is samples per certainty/nearest request (default 8).
	QuerySize int
	// Patch is the square Bragg patch edge for generated samples
	// (default 11).
	Patch int
	// SetupDocs seeds the corpus before measuring (default 256), which
	// bootstrap-fits a fresh daemon and gives nearest/certainty something
	// to probe.
	SetupDocs int
	// Seed drives deterministic sample generation and op scheduling.
	Seed int64
	// TraceSample, when > 0, traces every Nth request end to end (client
	// span tree with the server's grafted underneath) and retains the
	// slowest trees in the report's trace_samples — the "why was p99 slow"
	// artifact next to the latency numbers. Zero disables tracing.
	TraceSample int
	// TraceKeep bounds retained trace samples (default 8).
	TraceKeep int
	// Cluster marks Addr as a dmsrouter rather than a single dmsd. The
	// /v1 surface is identical, so the workload runs unchanged; only the
	// /statsz before/after delta is skipped (the router's stats schema is
	// cluster-shaped, not dmsapi.Stats), leaving Report.Server nil.
	Cluster bool
	// Logf, when set, receives progress lines (e.g. log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() error {
	if c.Addr == "" {
		return errors.New("loadgen: no daemon address")
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.QuerySize <= 0 {
		c.QuerySize = 8
	}
	if c.Patch <= 0 {
		c.Patch = 11
	}
	if c.SetupDocs <= 0 {
		c.SetupDocs = 256
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 3
	}
	if c.TraceKeep <= 0 {
		c.TraceKeep = 8
	}
	if len(c.Mix) == 0 {
		c.Mix = map[Op]int{OpIngestBatch: 1, OpCertainty: 2, OpNearest: 4, OpRecommend: 4}
	}
	total := 0
	for op, w := range c.Mix {
		if !validOp(op) {
			return fmt.Errorf("loadgen: unknown op %q (want %s)", op, opList())
		}
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return errors.New("loadgen: operation mix has no positive weights")
	}
	return nil
}

func validOp(op Op) bool {
	for _, o := range allOps {
		if o == op {
			return true
		}
	}
	return false
}

func opList() string {
	names := make([]string, len(allOps))
	for i, o := range allOps {
		names[i] = string(o)
	}
	return strings.Join(names, ", ")
}

// ParseMix parses a "op:weight,op:weight" flag value (e.g.
// "ingest_batch:1,certainty:2,nearest:4,recommend:4").
func ParseMix(s string) (map[Op]int, error) {
	out := make(map[Op]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op, weight, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q is not op:weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(weight))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: mix entry %q has invalid weight", part)
		}
		o := Op(strings.TrimSpace(op))
		if !validOp(o) {
			return nil, fmt.Errorf("loadgen: unknown op %q (want %s)", op, opList())
		}
		out[o] = w
	}
	if len(out) == 0 {
		return nil, errors.New("loadgen: empty operation mix")
	}
	return out, nil
}

// OpStats is the per-operation slice of a Report.
type OpStats struct {
	Count      int64   `json:"count"`
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_rps"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	P999MS     float64 `json:"p999_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// TraceSample is one retained end-to-end span tree: the wire op that
// produced it, its total duration, and the merged client+server tree.
type TraceSample struct {
	Op    string        `json:"op"`
	DurMS float64       `json:"dur_ms"`
	Trace obs.TraceDump `json:"trace"`
}

// ServerDelta is what the run did to the daemon, from /statsz snapshots
// taken before and after the measured phase. Endpoint percentiles are
// lifetime values (histograms are cumulative), so only counts are deltas.
type ServerDelta struct {
	Requests  int64                           `json:"requests"`
	Shed      int64                           `json:"shed"`
	Errors    int64                           `json:"errors"`
	Endpoints map[string]dmsapi.EndpointStats `json:"endpoints"`
}

// Report is the machine-readable outcome of a run — the schema of
// BENCH_dmsapi.json (see docs/BENCHMARKS.md).
type Report struct {
	// Provenance.
	Addr      string    `json:"addr"`
	StartedAt time.Time `json:"started_at"`

	// Effective configuration.
	Workers         int            `json:"workers"`
	DurationSeconds float64        `json:"duration_seconds"`
	Mix             map[string]int `json:"mix"`
	BatchSize       int            `json:"batch_size"`
	QuerySize       int            `json:"query_size"`
	Seed            int64          `json:"seed"`

	// Aggregate outcome.
	TotalRequests int64   `json:"total_requests"`
	TotalErrors   int64   `json:"total_errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// DocsIngested counts documents landed by ingest_batch ops (each such
	// op carries BatchSize documents).
	DocsIngested int64 `json:"docs_ingested"`

	// Per-operation latency distributions (client-side).
	Ops map[string]OpStats `json:"ops"`

	// Server-side view of the same window.
	Server *ServerDelta `json:"server,omitempty"`

	// TraceSamples are the slowest sampled span trees (Config.TraceSample),
	// slowest first — the diagnosis companion to the tail percentiles.
	TraceSamples []TraceSample `json:"trace_samples,omitempty"`
}

// WriteFile writes the report as indented JSON, crash-safely (tmp +
// fsync + rename via fsx.WriteFileAtomic).
func (r *Report) WriteFile(path string) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, append(blob, '\n'), 0o644)
}

// opCounters pairs a histogram with an error count, shared by all workers
// driving that op.
type opCounters struct {
	count  atomic.Int64
	errors atomic.Int64
	docs   atomic.Int64
	hist   hdrhist.Histogram
}

// Run executes the workload against a live daemon and returns the report.
// The daemon is left running (and fuller than before: ingest ops are real).
func Run(cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	traces := &traceCollector{keep: cfg.TraceKeep}
	client, err := dmsapi.NewClient(cfg.Addr, dmsapi.WithTraceSample(cfg.TraceSample, traces.add))
	if err != nil {
		return nil, fmt.Errorf("loadgen: dialing %s: %w", cfg.Addr, err)
	}
	defer client.Close()

	// Sample pool: enough distinct documents that rotating windows never
	// hand two workers identical requests back to back (identical bodies
	// would be answered by the server's coalescing cache, understating
	// real work), and always strictly larger than any single request so
	// window() can slide.
	poolSize := cfg.SetupDocs + cfg.Workers*cfg.BatchSize
	if poolSize < 1024 {
		poolSize = 1024
	}
	if poolSize <= cfg.BatchSize {
		poolSize = cfg.BatchSize + 1
	}
	if poolSize <= cfg.QuerySize {
		poolSize = cfg.QuerySize + 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	regime := datagen.DefaultBraggRegime()
	regime.Patch = cfg.Patch
	pool := regime.Generate(rng, poolSize)
	logf("loadgen: generated %d %dx%d samples", poolSize, cfg.Patch, cfg.Patch)

	// Setup phase: seed the corpus (bootstrap-fits a fresh daemon) and make
	// sure the zoo can answer recommends.
	seedResp, err := client.IngestBatch("loadgen-seed", pool[:cfg.SetupDocs])
	if err != nil {
		return nil, fmt.Errorf("loadgen: seeding corpus: %w", err)
	}
	if len(seedResp.Errors) > 0 {
		return nil, fmt.Errorf("loadgen: seeding corpus: %d documents rejected, first: %+v",
			len(seedResp.Errors), seedResp.Errors[0])
	}
	seedPDF, err := client.PDF(pool[:cfg.QuerySize])
	if err != nil {
		return nil, fmt.Errorf("loadgen: probing dataset PDF: %w", err)
	}
	if err := registerSeedModel(client, seedPDF, cfg.Seed); err != nil {
		return nil, err
	}
	logf("loadgen: corpus seeded (%d docs), zoo primed", seedResp.Inserted)

	// Recommend queries are perturbed per request (see runOp): a fixed
	// body set would fit inside the server's response LRU after one pass
	// and the recorded latencies would measure cache lookups, not
	// recommendation work.

	// Weighted op schedule.
	var schedule []Op
	for _, op := range allOps { // deterministic order
		for i := 0; i < cfg.Mix[op]; i++ {
			schedule = append(schedule, op)
		}
	}

	counters := make(map[Op]*opCounters, len(allOps))
	for _, op := range allOps {
		if cfg.Mix[op] > 0 {
			counters[op] = &opCounters{}
		}
	}

	var before dmsapi.Stats
	if !cfg.Cluster {
		before, err = client.ServerStats()
		if err != nil {
			return nil, fmt.Errorf("loadgen: /statsz before: %w", err)
		}
	}

	logf("loadgen: driving %s with %d workers for %v (mix %v)",
		cfg.Addr, cfg.Workers, cfg.Duration, cfg.Mix)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				op := schedule[wrng.Intn(len(schedule))]
				c := counters[op]
				begin := time.Now()
				docs, err := runOp(client, op, cfg, wrng, pool, seedPDF)
				c.hist.Record(time.Since(begin))
				c.count.Add(1)
				// docs counts commits even when the op also reports an
				// error (a partial batch rejection still landed the rest).
				c.docs.Add(docs)
				if err != nil {
					c.errors.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var after dmsapi.Stats
	if !cfg.Cluster {
		after, err = client.ServerStats()
		if err != nil {
			return nil, fmt.Errorf("loadgen: /statsz after: %w", err)
		}
	}

	rep := assemble(cfg, start, elapsed, counters, before, after)
	rep.TraceSamples = traces.snapshot()
	if cfg.TraceSample > 0 {
		logf("loadgen: retained %d trace samples (every %dth request traced)",
			len(rep.TraceSamples), cfg.TraceSample)
	}
	return rep, nil
}

// traceCollector keeps the slowest sampled span trees. The client calls
// add synchronously on worker goroutines, so it holds its own lock and
// stays cheap: one duration computation plus an insertion into a small
// sorted slice.
type traceCollector struct {
	mu      sync.Mutex
	keep    int
	samples []TraceSample
}

func (tc *traceCollector) add(op string, dump obs.TraceDump) {
	s := TraceSample{Op: op, DurMS: durMS(dump.Duration()), Trace: dump}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	i := sort.Search(len(tc.samples), func(i int) bool { return tc.samples[i].DurMS < s.DurMS })
	if i >= tc.keep {
		return
	}
	tc.samples = append(tc.samples, TraceSample{})
	copy(tc.samples[i+1:], tc.samples[i:])
	tc.samples[i] = s
	if len(tc.samples) > tc.keep {
		tc.samples = tc.samples[:tc.keep]
	}
}

// snapshot returns the retained samples, slowest first.
func (tc *traceCollector) snapshot() []TraceSample {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]TraceSample(nil), tc.samples...)
}

// runOp executes one operation, returning how many documents it ingested.
func runOp(client *dmsapi.Client, op Op, cfg Config, rng *rand.Rand, pool []*codec.Sample, seedPDF stats.PDF) (int64, error) {
	window := func(n int) []*codec.Sample {
		lo := rng.Intn(len(pool) - n)
		return pool[lo : lo+n]
	}
	switch op {
	case OpIngestBatch:
		resp, err := client.IngestBatch("loadgen", window(cfg.BatchSize))
		if err != nil {
			return 0, err
		}
		if len(resp.Errors) > 0 {
			return int64(resp.Inserted), fmt.Errorf("loadgen: %d documents rejected", len(resp.Errors))
		}
		return int64(resp.Inserted), nil
	case OpCertainty:
		_, err := client.Certainty(window(cfg.QuerySize), 0.5)
		return 0, err
	case OpNearest:
		_, err := client.Nearest(window(cfg.QuerySize), false)
		return 0, err
	case OpRecommend:
		// A fresh perturbation per request keeps the body out of the
		// server's response LRU, so latency measures zoo ranking.
		_, err := client.Recommend(perturbPDF(rng, seedPDF), 0)
		return 0, err
	case OpTrain:
		// One whole server-side training job, submit to terminal state.
		// The auto-derived model ID keeps repeated ops from colliding in
		// the zoo. A 429 on submit is the trainer's designed backpressure
		// (worker pool + queue smaller than the bench's concurrency), not
		// a failure — the op records the shed round trip and moves on.
		job, err := client.SubmitTrain(dmsapi.TrainRequest{
			Samples:   dmsapi.FromCodecSlice(window(cfg.QuerySize)),
			Model:     "mlp",
			Hidden:    16,
			Epochs:    cfg.TrainEpochs,
			BatchSize: 16,
			Seed:      rng.Int63(),
		})
		var se *dmsapi.StatusError
		if errors.As(err, &se) && se.Code == 429 {
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		job, err = client.WaitTrain(job.ID, 10*time.Millisecond, 2*time.Minute)
		if err != nil {
			return 0, err
		}
		if job.State != "done" {
			return 0, fmt.Errorf("loadgen: train job %s ended %s: %s", job.ID, job.State, job.Error)
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown op %q", op)
	}
}

// registerSeedModel ensures at least one zoo entry exists so recommends
// return a ranked answer. A duplicate ID from a previous run is fine.
func registerSeedModel(client *dmsapi.Client, pdf stats.PDF, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	state := nn.Sequential(nn.NewLinear(rng, 4, 2)).State()
	err := client.AddModel("loadgen-seed", state, pdf, map[string]string{"origin": "loadgen"})
	var se *dmsapi.StatusError
	if errors.As(err, &se) && se.Code == 409 {
		return nil // already registered by an earlier run against this daemon
	}
	if err != nil {
		return fmt.Errorf("loadgen: priming model zoo: %w", err)
	}
	return nil
}

// perturbPDF jitters a PDF and renormalizes, keeping it a valid
// distribution of the same dimension.
func perturbPDF(rng *rand.Rand, pdf stats.PDF) stats.PDF {
	out := make(stats.PDF, len(pdf))
	total := 0.0
	for i, p := range pdf {
		v := p * (1 + 0.3*rng.Float64())
		if v <= 0 {
			v = 1e-9
		}
		out[i] = v
		total += v
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

func assemble(cfg Config, start time.Time, elapsed time.Duration, counters map[Op]*opCounters, before, after dmsapi.Stats) *Report {
	rep := &Report{
		Addr:            cfg.Addr,
		StartedAt:       start.UTC(),
		Workers:         cfg.Workers,
		DurationSeconds: elapsed.Seconds(),
		Mix:             make(map[string]int, len(cfg.Mix)),
		BatchSize:       cfg.BatchSize,
		QuerySize:       cfg.QuerySize,
		Seed:            cfg.Seed,
		Ops:             make(map[string]OpStats, len(counters)),
	}
	for op, w := range cfg.Mix {
		if w > 0 {
			rep.Mix[string(op)] = w
		}
	}
	for op, c := range counters {
		snap := c.hist.Snapshot()
		st := OpStats{
			Count:  c.count.Load(),
			Errors: c.errors.Load(),
			MeanMS: durMS(snap.Mean()),
			P50MS:  durMS(snap.Quantile(0.50)),
			P95MS:  durMS(snap.Quantile(0.95)),
			P99MS:  durMS(snap.Quantile(0.99)),
			P999MS: durMS(snap.Quantile(0.999)),
			MaxMS:  durMS(snap.Max()),
		}
		if elapsed > 0 {
			st.Throughput = float64(st.Count) / elapsed.Seconds()
		}
		rep.Ops[string(op)] = st
		rep.TotalRequests += st.Count
		rep.TotalErrors += st.Errors
		rep.DocsIngested += c.docs.Load()
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.TotalRequests) / elapsed.Seconds()
	}
	if cfg.Cluster {
		return rep // no single-daemon /statsz delta behind a router
	}

	delta := &ServerDelta{
		Requests:  after.Requests - before.Requests,
		Shed:      after.Shed - before.Shed,
		Endpoints: make(map[string]dmsapi.EndpointStats, len(after.Endpoints)),
	}
	for name, ep := range after.Endpoints {
		prev := before.Endpoints[name]
		ep.Count -= prev.Count
		ep.Errors -= prev.Errors
		ep.TotalMS -= prev.TotalMS
		if ep.Count == 0 {
			continue // endpoint not touched during the window
		}
		ep.AverageMS = ep.TotalMS / float64(ep.Count)
		delta.Errors += ep.Errors
		delta.Endpoints[name] = ep
	}
	rep.Server = delta
	return rep
}

// Summary renders a human-readable table of the report for terminal use.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %s — %d workers, %.1fs, %d requests (%.1f req/s), %d errors, %d docs ingested\n",
		r.Addr, r.Workers, r.DurationSeconds, r.TotalRequests, r.ThroughputRPS, r.TotalErrors, r.DocsIngested)
	ops := make([]string, 0, len(r.Ops))
	for op := range r.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(&b, "%-14s %8s %7s %10s %9s %9s %9s %9s\n",
		"op", "count", "errors", "rps", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, op := range ops {
		st := r.Ops[op]
		fmt.Fprintf(&b, "%-14s %8d %7d %10.1f %9.3f %9.3f %9.3f %9.3f\n",
			op, st.Count, st.Errors, st.Throughput, st.P50MS, st.P95MS, st.P99MS, st.MaxMS)
	}
	if r.Server != nil {
		fmt.Fprintf(&b, "server: %d requests (%d shed, %d errors) during the window\n",
			r.Server.Requests, r.Server.Shed, r.Server.Errors)
	}
	return b.String()
}

// durMS converts a duration to fractional milliseconds.
func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
