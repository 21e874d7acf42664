// Fixture: naming violations across registrations and spans.
package a

import (
	"context"

	"internal/obs"
)

func register(r *obs.Registry) {
	r.Counter("good_total", "fine")
	r.Counter("Bad-Name", "uppercase and dash")       // want `metric name "Bad-Name" is not lowercase_snake`
	r.CounterFunc("good_total", "second time", nil)   // want `metric "good_total" is already registered`
	r.CounterVec("vec_total", "fine", "opLabel")      // want `label name "opLabel" is not lowercase_snake`
	r.HistogramVec("lat_seconds", "fine", "endpoint") // clean
	r.Histogram("9starts_with_digit", "bad")          // want `metric name "9starts_with_digit" is not lowercase_snake`
	r.Gauge("dms_slo_budget", "fine")
	r.Gauge("dms_slo_budget", "again")                                      // want `metric "dms_slo_budget" is already registered`
	r.GaugeVec("dms_slo_burn", "fine", "SLO-ID")                            // want `label name "SLO-ID" is not lowercase_snake`
	r.Info("Build Info", "bad", obs.Label{Key: "go_version", Value: "go1"}) // want `metric name "Build Info" is not lowercase_snake`
	r.Info("dms_build_info", "fine")
	r.Info("dms_build_info", "again") // want `metric "dms_build_info" is already registered`
}

// A log message is not a metric name: Logger.Info shares the method name
// with Registry.Info and is not checked.
func logs(l *obs.Logger) {
	l.Info("Not snake")
	l.Info("Not snake")
}

func spans(ctx context.Context) {
	ctx, _ = obs.StartSpan(ctx, "store_insert")
	_, _ = obs.StartSpan(ctx, "httpRoundtrip") // want `span name "httpRoundtrip" is not lowercase_snake`
	_, _ = obs.StartSpan(ctx, "store_insert")  // repeated span names are fine
}

// dynamic names are out of static reach and left to the runtime check.
func dynamic(r *obs.Registry, name string) {
	r.Counter(name, "runtime-checked")
}
