// Fixture stub of the real internal/obs surface: just enough signatures
// for the analyzer's suffix-matched call-site checks to resolve.
package obs

import "context"

type Registry struct{}
type Logger struct{}
type Label struct{ Key, Value string }

type Counter struct{}
type Gauge struct{}
type Histogram struct{}
type CounterVec struct{}
type GaugeVec struct{}
type HistogramVec struct{}
type Span struct{}

func (r *Registry) Counter(name, help string) *Counter                  { return nil }
func (r *Registry) CounterFunc(name, help string, fn func() int64)      {}
func (r *Registry) Gauge(name, help string) *Gauge                      { return nil }
func (r *Registry) GaugeFunc(name, help string, fn func() float64)      {}
func (r *Registry) Histogram(name, help string) *Histogram              { return nil }
func (r *Registry) CounterVec(name, help, label string) *CounterVec     { return nil }
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec         { return nil }
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec { return nil }
func (r *Registry) Info(name, help string, labels ...Label)             {}

func (l *Logger) Info(msg string, kv ...any) {}

func (v *CounterVec) With(value string) *Counter { return nil }
func (v *GaugeVec) With(value string) *Gauge     { return nil }

func StartSpan(ctx context.Context, name string) (context.Context, *Span) { return ctx, nil }
