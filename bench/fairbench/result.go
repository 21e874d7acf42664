package main

import (
	"fmt"
	"io"
	"time"
)

// value is one reported metric. Samples is the count behind a percentile,
// median or rate (0 for plain counts and ratios).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's outcome: every metric it emitted, the op tally
// behind ok_share, and the provenance of its inputs.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"` // the first few, for diagnosis
	OpCounts  map[string]int   `json:"op_counts"`
	Metrics   map[string]value `json:"metrics"`
	// Chunks holds the per-chunk values behind ops_s, read_p50_ms and
	// read_p90_ms, in run order: drift inside a run shows here.
	Chunks []chunkValues `json:"chunks,omitempty"`
}

type chunkValues struct {
	OpsS      float64 `json:"ops_s"`
	ReadP50MS float64 `json:"read_p50_ms"`
	ReadP90MS float64 `json:"read_p90_ms"`
}

func newResult(rc *runCtx) *result {
	return &result{
		Workload: rc.spec.name, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.trace,
		OpCounts: make(map[string]int), Metrics: make(map[string]value),
	}
}

func (r *result) set(name string, v float64, samples int) {
	m, ok := metricByName[name]
	if !ok {
		panic("fairbench: metric " + name + " is not in the metric table")
	}
	if !m.emittedOn(r.Workload) {
		return // an unexercised metric is absent, not a near-zero number
	}
	r.Metrics[name] = value{Value: v, Unit: m.unit, Samples: samples}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// print writes every metric as "workload/name value unit", end-to-end
// metrics first, each group in table order.
func (r *result) print(w io.Writer) {
	for _, m := range metrics {
		v, ok := r.Metrics[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s/%s %.6g %s", r.Workload, m.name, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" (n=%d)", v.Samples)
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "%s: CHECK FAILED: %s\n", r.Workload, f)
	}
}

// recorder collects the raw latency samples of a measured phase, per op
// kind, and tallies ok/failed ops. Percentiles come from these samples
// exactly (sort), never from buckets.
type recorder struct {
	res *result
	ms  [numKinds][]float64
	// on is false during warm-up: ops run and are checked, but leave no
	// latency sample and do not count towards ops_s.
	on      bool
	okCount int
	// The measured phase is cut into chunks of equal work and the gated
	// metrics are taken over the chunks' values (see setCommon).
	chunks []chunk
	cur    *chunk
}

// chunk is one slice of the measured phase.
type chunk struct {
	start time.Time
	wall  time.Duration
	ops   int
	reads []float64 // ms
}

// beginChunk closes the open chunk, if any, and opens the next.
func (rec *recorder) beginChunk() {
	rec.endChunks()
	rec.cur = &chunk{start: time.Now()}
}

// endChunks closes the open chunk.
func (rec *recorder) endChunks() {
	if rec.cur != nil {
		rec.cur.wall = time.Since(rec.cur.start)
		rec.chunks = append(rec.chunks, *rec.cur)
		rec.cur = nil
	}
}

// check tallies one attempted operation that is not a timed op (a crash
// recovery step, say): it feeds ok_share and nothing else.
func (rec *recorder) check(what string, err error) bool {
	rec.res.Attempted++
	if err != nil {
		rec.res.Failed++
		if len(rec.res.Failures) < 8 {
			rec.res.Failures = append(rec.res.Failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
	return err == nil
}

// observe records one finished op. err is the call's or its check's error.
func (rec *recorder) observe(kind opKind, d time.Duration, err error) {
	if rec.check(kind.String(), err) && rec.on {
		rec.okCount++
		ms := float64(d.Nanoseconds()) / 1e6
		rec.ms[kind] = append(rec.ms[kind], ms)
		rec.res.OpCounts[kind.String()]++
		if rec.cur != nil {
			rec.cur.ops++
			if kind <= opLookup {
				rec.cur.reads = append(rec.cur.reads, ms)
			}
		}
	}
}

// okShare is ops that succeeded and passed their check ÷ ops attempted.
func (r *result) okShare() float64 {
	return float64(r.Attempted-r.Failed) / float64(max(r.Attempted, 1))
}

// setP records a percentile metric when the kind has samples.
func (rec *recorder) setP(name string, xs []float64, p float64) {
	if len(xs) > 0 {
		rec.res.set(name, percentile(xs, p), len(xs))
	}
}

// setCommon records the end-to-end metrics every workload emits. ops_s,
// read_p50_ms and read_p90_ms are computed per chunk — ops ÷ wall time, and
// the exact p50 and p90 of the chunk's read latencies (nearest, certainty,
// recommend, lookup) — and the favourable quartile over the chunks is
// reported. On a shared 2-vCPU host, neighbours slow stretches of a run by
// 10–25% and never speed one up; measured over twelve runs the median over
// chunks moved 6.4% between runs (interquartile), the favourable quartile
// 3.1%. The pooled per-op p99s stay in the layer metrics, so a change that
// adds stalls still shows.
func (rec *recorder) setCommon(setup time.Duration) {
	rec.endChunks()
	r := rec.res
	r.set("setup_s", setup.Seconds(), 1)
	var rates, p50s, p90s []float64
	reads := 0
	for _, c := range rec.chunks {
		if c.ops == 0 || len(c.reads) == 0 {
			continue // every op of the chunk failed; ok_share says so
		}
		v := chunkValues{float64(c.ops) / c.wall.Seconds(), percentile(c.reads, 50), percentile(c.reads, 90)}
		r.Chunks = append(r.Chunks, v)
		rates, p50s, p90s = append(rates, v.OpsS), append(p50s, v.ReadP50MS), append(p90s, v.ReadP90MS)
		reads += len(c.reads)
	}
	if len(rates) > 0 {
		r.set("ops_s", favourable(rates, true), rec.okCount)
	}
	if len(p50s) > 0 {
		r.set("read_p50_ms", favourable(p50s, false), reads)
		r.set("read_p90_ms", favourable(p90s, false), reads)
	}
	r.set("ok_share", r.okShare(), r.Attempted)
}

// setOpPercentiles records the per-kind p50s the issue gates and the tail
// percentiles it keeps as layer metrics.
func (rec *recorder) setOpPercentiles() {
	rec.setP("nearest_p50_ms", rec.ms[opNearest], 50)
	rec.setP("certainty_p50_ms", rec.ms[opCertainty], 50)
	rec.setP("recommend_p50_ms", rec.ms[opRecommend], 50)
	rec.setP("dmsapi.nearest_p99_ms", rec.ms[opNearest], 99)
	rec.setP("dmsapi.certainty_p99_ms", rec.ms[opCertainty], 99)
	rec.setP("dmsapi.recommend_p99_ms", rec.ms[opRecommend], 99)
	rec.setP("dmsapi.lookup_p50_ms", rec.ms[opLookup], 50)
	rec.setP("dmsapi.lookup_p99_ms", rec.ms[opLookup], 99)
	rec.setP("dmsapi.ingest_batch_p50_ms", rec.ms[opIngest], 50)
	rec.setP("dmsapi.ingest_batch_p99_ms", rec.ms[opIngest], 99)
}
