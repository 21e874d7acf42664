package main

import "testing"

const expoBefore = `# HELP dms_cache_hits_total coalescing-cache hits
# TYPE dms_cache_hits_total counter
dms_cache_hits_total 10
# HELP dms_cache_misses_total coalescing-cache misses
# TYPE dms_cache_misses_total counter
dms_cache_misses_total 30
# HELP dms_endpoint_errors_total error responses by endpoint
# TYPE dms_endpoint_errors_total counter
dms_endpoint_errors_total{endpoint="data.nearest"} 0
`

const expoAfter = `# HELP dms_cache_hits_total coalescing-cache hits
# TYPE dms_cache_hits_total counter
dms_cache_hits_total 40
# HELP dms_cache_misses_total coalescing-cache misses
# TYPE dms_cache_misses_total counter
dms_cache_misses_total 40
# HELP dms_endpoint_errors_total error responses by endpoint
# TYPE dms_endpoint_errors_total counter
dms_endpoint_errors_total{endpoint="data.nearest"} 2
# HELP dms_shed_total requests rejected with 429 by admission control
# TYPE dms_shed_total counter
dms_shed_total 3
`

func TestExpositionDelta(t *testing.T) {
	before, err := parseCounters([]byte(expoBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseCounters([]byte(expoAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := before.delta(after)
	if got := d["dms_cache_hits_total"]; got != 30 {
		t.Errorf("hits delta = %v, want 30", got)
	}
	if got := d[`dms_endpoint_errors_total{endpoint="data.nearest"}`]; got != 2 {
		t.Errorf("labelled series delta = %v, want 2 (series: %v)", got, d)
	}
	if got := d["dms_shed_total"]; got != 3 {
		t.Errorf("a series that first appears after counts from zero: got %v, want 3", got)
	}
	// 30 new hits, 10 new misses.
	if got := d.ratio("dms_cache_hits_total", "dms_cache_misses_total"); got != 0.75 {
		t.Errorf("hit share = %v, want 0.75", got)
	}
	if got := (counters{}).ratio("a", "b"); got != 0 {
		t.Errorf("ratio of nothing = %v, want 0", got)
	}
	if _, err := parseCounters([]byte("dms_x{oops 1\n")); err == nil {
		t.Error("a malformed exposition parsed without error")
	}
}
