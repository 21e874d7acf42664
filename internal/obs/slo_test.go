package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// near tolerates the float error the 1-q budget arithmetic introduces.
func near(got, want float64) bool { return got > want*0.999 && got < want*1.001 }

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("nearest:p99<5ms,err<0.1%;recommend:p95<20ms")
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	if len(slos) != 3 {
		t.Fatalf("got %d objectives, want 3", len(slos))
	}
	p99 := slos[0]
	if p99.Endpoint != "nearest" || p99.Name != "p99" || p99.Quantile != 0.99 || p99.Latency != 5*time.Millisecond {
		t.Errorf("p99 objective = %+v", p99)
	}
	if got := p99.Budget(); got < 0.0099 || got > 0.0101 {
		t.Errorf("p99 budget = %v, want 0.01", got)
	}
	errObj := slos[1]
	if errObj.Name != "err" || errObj.ErrRate != 0.001 || errObj.Budget() != 0.001 {
		t.Errorf("err objective = %+v", errObj)
	}
	if errObj.ID() != "nearest_err" {
		t.Errorf("ID = %q", errObj.ID())
	}
	if s := errObj.String(); s != "nearest:err<0.1%" {
		t.Errorf("String = %q", s)
	}
	if slos[2].Endpoint != "recommend" || slos[2].Quantile != 0.95 {
		t.Errorf("second clause = %+v", slos[2])
	}
}

func TestParseSLOsRejects(t *testing.T) {
	for _, bad := range []string{
		"nearest",             // no objectives
		"nearest:p99",         // no bound
		"nearest:p42<5ms",     // unknown quantile
		"nearest:p99<banana",  // bad duration
		"nearest:err<0.1",     // missing %
		"nearest:err<200%",    // impossible rate
		":p99<5ms",            // empty endpoint
		"nearest:latency<5ms", // unknown objective
	} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if slos, err := ParseSLOs(" ; "); err != nil || len(slos) != 0 {
		t.Errorf("blank spec: %v, %v", slos, err)
	}
}

func TestSLOMatchesEndpoint(t *testing.T) {
	s := SLO{Endpoint: "nearest"}
	if !s.MatchesEndpoint("nearest") || !s.MatchesEndpoint("data.nearest") {
		t.Error("suffix match failed")
	}
	if s.MatchesEndpoint("data.nearest_extra") || s.MatchesEndpoint("models.recommend") {
		t.Error("matched unrelated endpoint")
	}
}

// TestSLOBurnRates drives the evaluator with a fake clock and pins the
// burn math: burn = bad-fraction / budget over each window.
func TestSLOBurnRates(t *testing.T) {
	slos, err := ParseSLOs("nearest:p99<5ms,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	e := NewSLOEvaluator(slos)
	clock := time.Unix(1_000_000, 0)
	e.now = func() time.Time { return clock }
	reg := NewRegistry()
	e.Register(reg)

	// 100 requests: 10 over the 5ms bound, 2 errors.
	for i := 0; i < 100; i++ {
		dur := time.Millisecond
		if i < 10 {
			dur = 20 * time.Millisecond
		}
		e.Observe("data.nearest", dur, i < 2)
	}
	status := e.Status()
	if len(status) != 2 {
		t.Fatalf("got %d statuses, want 2", len(status))
	}
	var latency, errs SLOStatus
	for _, s := range status {
		if s.ID == "nearest_p99" {
			latency = s
		} else {
			errs = s
		}
	}
	// 10% bad against a 1% budget: burn 10 on both windows.
	if !near(latency.FastBurn, 10) || !near(latency.SlowBurn, 10) || !latency.Breaching {
		t.Errorf("latency status = %+v, want burn 10 breaching", latency)
	}
	// 2% errors against a 1% budget: burn 2.
	if !near(errs.FastBurn, 2) || !errs.Breaching {
		t.Errorf("err status = %+v, want burn 2", errs)
	}

	// Two minutes later the fast window is clean but the slow window still
	// sees the spike.
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 100; i++ {
		e.Observe("data.nearest", time.Millisecond, false)
	}
	status = e.Status()
	for _, s := range status {
		if s.ID == "nearest_p99" {
			if s.FastBurn != 0 || s.Breaching {
				t.Errorf("fast window did not recover: %+v", s)
			}
			if !near(s.SlowBurn, 5) { // 10 bad / 200 total / 0.01
				t.Errorf("slow burn = %v, want 5", s.SlowBurn)
			}
		}
	}

	// Eleven minutes later everything has aged out.
	clock = clock.Add(11 * time.Minute)
	for _, s := range e.Status() {
		if s.FastBurn != 0 || s.SlowBurn != 0 || s.FastTotal != 0 {
			t.Errorf("window did not age out: %+v", s)
		}
	}

	// The registered gauges expose the burn values.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dms_slo_fast_burn", "dms_slo_slow_burn", "dms_slo_budget", "dms_slo_breaches_total", `objective="nearest_p99"`} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if _, err := ParseExposition(buf.Bytes()); err != nil {
		t.Errorf("slo exposition invalid: %v", err)
	}
}

// TestSLOEvaluatorNil pins that the disabled evaluator is a safe no-op.
func TestSLOEvaluatorNil(t *testing.T) {
	var e *SLOEvaluator
	e.Observe("x", time.Second, true)
	e.Register(NewRegistry())
	if s := e.Status(); s != nil {
		t.Errorf("nil evaluator Status = %v", s)
	}
	if NewSLOEvaluator(nil) != nil {
		t.Error("empty objective list should disable the evaluator")
	}
}
