package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"fairdms/internal/hdrhist"
)

// Registry is a central metric table with Prometheus-text exposition.
// Metrics register once at construction time (duplicate or malformed
// names panic — a programmer error, caught by tests and the obsnames
// analyzer) and are then recorded from any goroutine without locks on the
// hot path: counters are single atomics, histograms are hdrhist, and
// func-backed metrics read whatever atomic state their owner already
// keeps, so migrating an existing hand-kept counter costs one closure.
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*family
	families []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeSummary
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// family is one metric name: scalar (single unlabeled series) or a vec
// keyed by one label.
type family struct {
	name  string
	help  string
	typ   metricType
	label string // label key; "" = scalar

	mu     sync.Mutex
	order  []string
	series map[string]any // *Counter | *Gauge | func() int64 | func() float64 | *hdrhist.Histogram | infoLabels
}

// infoLabels is the rendered label set of an Info family's one series.
type infoLabels string

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable instantaneous metric (an atomic float64).
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the counter for a label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	c, _ := v.f.get(value, func() any { return &Counter{} }).(*Counter)
	return c
}

// Func adds the series for a label value read from fn at exposition time:
// CounterFunc for one member of the family.
func (v *CounterVec) Func(value string, fn func() int64) { v.f.get(value, func() any { return fn }) }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// With returns the gauge for a label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	g, _ := v.f.get(value, func() any { return &Gauge{} }).(*Gauge)
	return g
}

// Func adds the series for a label value read from fn at exposition time:
// GaugeFunc for one member of the family.
func (v *GaugeVec) Func(value string, fn func() float64) { v.f.get(value, func() any { return fn }) }

// HistogramVec is a latency-summary family keyed by one label. Each
// series is an hdrhist.Histogram recording nanoseconds and exposed as a
// Prometheus summary in seconds.
type HistogramVec struct{ f *family }

// With returns the histogram for a label value, creating it on first use.
func (v *HistogramVec) With(value string) *hdrhist.Histogram {
	h, _ := v.f.get(value, func() any { return &hdrhist.Histogram{} }).(*hdrhist.Histogram)
	return h
}

func (f *family) get(value string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[value]; ok {
		return s
	}
	s := mk()
	f.series[value] = s
	f.order = append(f.order, value)
	return s
}

// register installs a family, panicking on malformed or duplicate names:
// metric registration happens once at server construction, so failing
// loudly there beats silently shadowing a metric in production.
func (r *Registry) register(name, help string, typ metricType, label string) *family {
	if !ValidName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want lowercase_snake)", name))
	}
	if label != "" && !ValidName(label) {
		panic(fmt.Sprintf("obs: invalid label name %q (want lowercase_snake)", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, label: label, series: make(map[string]any)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, typeCounter, "")
	c := &Counter{}
	f.series[""] = c
	f.order = []string{""}
	return c
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counters already kept as atomics
// elsewhere (cache hits, shed totals, index probes).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, typeCounter, "")
	f.series[""] = fn
	f.order = []string{""}
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, typeGauge, "")
	f.series[""] = fn
	f.order = []string{""}
}

// Gauge registers and returns a settable scalar gauge — for values pushed
// by an evaluator (e.g. SLO burn rates) rather than read from owner state.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, typeGauge, "")
	g := &Gauge{}
	f.series[""] = g
	f.order = []string{""}
	return g
}

// Info registers a constant gauge of value 1 whose labels carry an
// identity, such as the running build's: name{k1="v1",k2="v2"} 1.
func (r *Registry) Info(name, help string, labels ...Label) {
	parts := make([]string, len(labels))
	for i, l := range labels {
		if !ValidName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q (want lowercase_snake)", l.Key))
		}
		parts[i] = fmt.Sprintf("%s=%q", l.Key, escapeLabel(l.Value))
	}
	f := r.register(name, help, typeGauge, "")
	f.series[""] = infoLabels(strings.Join(parts, ","))
	f.order = []string{""}
}

// GaugeVec registers a settable gauge family keyed by label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, label)}
}

// Histogram registers and returns a scalar latency histogram, exposed as
// a Prometheus summary in seconds.
func (r *Registry) Histogram(name, help string) *hdrhist.Histogram {
	f := r.register(name, help, typeSummary, "")
	h := &hdrhist.Histogram{}
	f.series[""] = h
	f.order = []string{""}
	return h
}

// CounterVec registers a counter family keyed by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, label)}
}

// HistogramVec registers a latency-summary family keyed by label.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeSummary, label)}
}

// quantiles exposed for each summary series.
var quantiles = []float64{0.5, 0.95, 0.99, 0.999}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4), families sorted by name. It reads counters and
// histograms with atomic snapshots, so scraping never stalls recording.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		order := make([]string, len(f.order))
		copy(order, f.order)
		series := make(map[string]any, len(f.series))
		for k, v := range f.series {
			series[k] = v
		}
		f.mu.Unlock()
		if len(order) == 0 {
			continue
		}

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, lv := range order {
			switch s := series[lv].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelPairs(f.label, lv, "", 0), s.Value())
			case func() int64:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, labelPairs(f.label, lv, "", 0), s())
			case func() float64:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelPairs(f.label, lv, "", 0), formatFloat(s()))
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelPairs(f.label, lv, "", 0), formatFloat(s.Value()))
			case infoLabels:
				fmt.Fprintf(&b, "%s{%s} 1\n", f.name, s)
			case *hdrhist.Histogram:
				snap := s.Snapshot()
				for _, q := range quantiles {
					fmt.Fprintf(&b, "%s%s %s\n", f.name, labelPairs(f.label, lv, "quantile", q),
						formatFloat(snap.Quantile(q).Seconds()))
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelPairs(f.label, lv, "", 0),
					formatFloat(float64(snap.SumNS)/1e9))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelPairs(f.label, lv, "", 0), snap.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelPairs renders the label set for one sample: the family label (if
// any) plus an optional quantile label.
func labelPairs(key, value, extra string, q float64) string {
	var parts []string
	if key != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", key, escapeLabel(value)))
	}
	if extra != "" {
		parts = append(parts, fmt.Sprintf("%s=%q", extra, strconv.FormatFloat(q, 'g', -1, 64)))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidName reports whether s is a legal metric/span/label name:
// lowercase_snake ASCII matching [a-z][a-z0-9_]*.
func ValidName(s string) bool {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return false
	}
	for i := 1; i < len(s); i++ {
		c := s[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}
