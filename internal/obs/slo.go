package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO support: per-endpoint latency and error-rate objectives evaluated
// over rolling windows, reported as multi-window burn rates (the
// fast-burn/slow-burn alerting pattern). An objective like "p99<5ms"
// grants an error budget of 1% of requests slower than 5ms; the burn rate
// is the observed bad fraction divided by that budget, so burn 1.0 means
// exactly on budget, burn 10 means the budget drains 10x too fast.

// Burn-rate windows: the fast window catches sharp spikes (page-worthy),
// the slow window catches sustained slow leaks.
const (
	sloFastWindow = 1 * time.Minute
	sloSlowWindow = 10 * time.Minute
)

// SLO is one parsed objective for one endpoint.
type SLO struct {
	Endpoint string  // bare endpoint name, e.g. "nearest"; matches "data.nearest"
	Name     string  // objective name: "p50"/"p95"/"p99"/"p999" or "err"
	Quantile float64 // latency objectives: quantile in (0,1)
	// Latency is the latency bound for quantile objectives.
	Latency time.Duration
	// ErrRate is the error budget fraction for "err" objectives (0.001 = 0.1%).
	ErrRate float64
}

// Budget returns the allowed bad-request fraction: 1-q for latency
// objectives (p99<5ms allows 1% of requests over 5ms), ErrRate for error
// objectives.
func (s SLO) Budget() float64 {
	if s.Name == "err" {
		return s.ErrRate
	}
	return 1 - s.Quantile
}

// ID is the objective's stable identity used as a metric label value,
// e.g. "nearest_p99".
func (s SLO) ID() string { return s.Endpoint + "_" + s.Name }

// String renders the objective back in flag grammar.
func (s SLO) String() string {
	if s.Name == "err" {
		return fmt.Sprintf("%s:err<%s%%", s.Endpoint, formatFloat(s.ErrRate*100))
	}
	return fmt.Sprintf("%s:%s<%s", s.Endpoint, s.Name, s.Latency)
}

var sloQuantiles = map[string]float64{"p50": 0.5, "p95": 0.95, "p99": 0.99, "p999": 0.999}

// ParseSLOs parses the -slo flag grammar: semicolon-separated endpoint
// clauses, each "endpoint:obj,obj" where an objective is either
// "pNN<duration" (Go duration syntax: 5ms, 1.5s) or "err<rate%". Example:
//
//	nearest:p99<5ms,err<0.1%;recommend:p95<20ms
func ParseSLOs(spec string) ([]SLO, error) {
	var out []SLO
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		endpoint, objs, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("slo clause %q: want endpoint:objectives", clause)
		}
		endpoint = strings.TrimSpace(endpoint)
		if endpoint == "" {
			return nil, fmt.Errorf("slo clause %q: empty endpoint", clause)
		}
		for _, obj := range strings.Split(objs, ",") {
			obj = strings.TrimSpace(obj)
			name, bound, ok := strings.Cut(obj, "<")
			if !ok {
				return nil, fmt.Errorf("slo objective %q: want name<bound", obj)
			}
			name = strings.TrimSpace(name)
			bound = strings.TrimSpace(bound)
			slo := SLO{Endpoint: endpoint, Name: name}
			switch {
			case name == "err":
				pct, ok := strings.CutSuffix(bound, "%")
				if !ok {
					return nil, fmt.Errorf("slo objective %q: error bound must end in %%", obj)
				}
				rate, err := strconv.ParseFloat(pct, 64)
				if err != nil || rate <= 0 || rate >= 100 {
					return nil, fmt.Errorf("slo objective %q: bad error rate", obj)
				}
				slo.ErrRate = rate / 100
			case sloQuantiles[name] != 0:
				d, err := time.ParseDuration(bound)
				if err != nil || d <= 0 {
					return nil, fmt.Errorf("slo objective %q: bad latency bound", obj)
				}
				slo.Quantile = sloQuantiles[name]
				slo.Latency = d
			default:
				return nil, fmt.Errorf("slo objective %q: unknown objective %q (want p50/p95/p99/p999/err)", obj, name)
			}
			out = append(out, slo)
		}
	}
	return out, nil
}

// MatchesEndpoint reports whether the objective applies to the metric
// endpoint name: exact, or dotted-suffix ("nearest" covers "data.nearest").
func (s SLO) MatchesEndpoint(name string) bool {
	return name == s.Endpoint || strings.HasSuffix(name, "."+s.Endpoint)
}

// sloBucket is one second of per-objective observations.
type sloBucket struct {
	sec   int64 // unix second this bucket covers
	total int64
	bad   int64
}

// sloSeries is the rolling per-objective window: a ring of one-second
// buckets sized to the slow window. id is slo.ID(), and fast, slow and
// breaches are its members of the burn families once Register has run.
type sloSeries struct {
	slo     SLO
	id      string
	buckets []sloBucket

	fast, slow *Gauge
	breaches   *Counter
}

func (s *sloSeries) observe(sec int64, bad bool) {
	b := &s.buckets[sec%int64(len(s.buckets))]
	if b.sec != sec {
		*b = sloBucket{sec: sec}
	}
	b.total++
	if bad {
		b.bad++
	}
}

// window sums buckets within [sec-win+1, sec].
func (s *sloSeries) window(sec int64, win time.Duration) (total, bad int64) {
	lo := sec - int64(win/time.Second) + 1
	for i := range s.buckets {
		b := s.buckets[i]
		if b.sec >= lo && b.sec <= sec && b.total > 0 {
			total += b.total
			bad += b.bad
		}
	}
	return total, bad
}

// SLOEvaluator scores requests against a set of objectives and exposes
// burn-rate gauges. Safe for concurrent use.
type SLOEvaluator struct {
	mu     sync.Mutex
	series []*sloSeries
	now    func() time.Time // injectable clock for tests
}

// NewSLOEvaluator builds an evaluator for the given objectives. Returns
// nil (a safe no-op receiver) when slos is empty.
func NewSLOEvaluator(slos []SLO) *SLOEvaluator {
	if len(slos) == 0 {
		return nil
	}
	e := &SLOEvaluator{now: time.Now}
	n := int(sloSlowWindow / time.Second)
	for _, s := range slos {
		e.series = append(e.series, &sloSeries{slo: s, id: s.ID(), buckets: make([]sloBucket, n)})
	}
	return e
}

// Register exposes the evaluator's burn-rate families on reg. The objective
// label value is SLO.ID() ("nearest_p99").
func (e *SLOEvaluator) Register(reg *Registry) {
	if e == nil {
		return
	}
	target := reg.GaugeVec("dms_slo_budget", "Allowed bad-request fraction per objective.", "objective")
	fast := reg.GaugeVec("dms_slo_fast_burn", "Error-budget burn rate over the fast (1m) window.", "objective")
	slow := reg.GaugeVec("dms_slo_slow_burn", "Error-budget burn rate over the slow (10m) window.", "objective")
	breaches := reg.CounterVec("dms_slo_breaches_total", "Evaluations that observed a fast-window burn rate above 1.", "objective")
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.series {
		target.With(s.id).Set(s.slo.Budget())
		s.fast, s.slow, s.breaches = fast.With(s.id), slow.With(s.id), breaches.With(s.id)
	}
}

// Observe scores one finished request against every objective matching
// endpoint. A request is bad for a latency objective when it ran longer
// than the bound; for an error objective when failed is true.
func (e *SLOEvaluator) Observe(endpoint string, dur time.Duration, failed bool) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sec := e.now().Unix()
	for _, s := range e.series {
		if !s.slo.MatchesEndpoint(endpoint) {
			continue
		}
		bad := failed
		if s.slo.Name != "err" {
			bad = dur > s.slo.Latency
		}
		s.observe(sec, bad)
	}
}

// burn converts a window's bad fraction into a burn-rate multiple of the
// budget. An empty window burns nothing.
func burn(total, bad int64, budget float64) float64 {
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// Refresh evaluates every objective now and sets its burn gauges, counting
// a breach when the fast window burns faster than the budget allows. Call
// it from the /metricsz handler so scraped gauges are current. Before
// Register it does nothing, and it allocates nothing.
func (e *SLOEvaluator) Refresh() {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sec := e.now().Unix()
	for _, s := range e.series {
		if s.fast == nil {
			return
		}
		budget := s.slo.Budget()
		ft, fb := s.window(sec, sloFastWindow)
		st, sb := s.window(sec, sloSlowWindow)
		fast := burn(ft, fb, budget)
		s.fast.Set(fast)
		s.slow.Set(burn(st, sb, budget))
		if fast > 1 {
			s.breaches.Add(1)
		}
	}
}
