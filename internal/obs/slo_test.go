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

// sloReading is one objective's burn gauges and breach count.
type sloReading struct {
	fast, slow float64
	breaches   int64
}

// refreshed refreshes e and reads every objective's gauges, by ID.
func refreshed(e *SLOEvaluator) map[string]sloReading {
	e.Refresh()
	out := make(map[string]sloReading)
	for _, s := range e.series {
		out[s.id] = sloReading{s.fast.Value(), s.slow.Value(), s.breaches.Value()}
	}
	return out
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
	b := refreshed(e)
	if len(b) != 2 {
		t.Fatalf("got %d objectives, want 2", len(b))
	}
	// 10% bad against a 1% budget: burn 10 on both windows, a breach.
	if l := b["nearest_p99"]; !near(l.fast, 10) || !near(l.slow, 10) || l.breaches != 1 {
		t.Errorf("latency objective = %+v, want burn 10 and one breach", l)
	}
	// 2% errors against a 1% budget: burn 2, a breach.
	if e := b["nearest_err"]; !near(e.fast, 2) || e.breaches != 1 {
		t.Errorf("err objective = %+v, want burn 2 and one breach", e)
	}

	// Two minutes later the fast window is clean but the slow window still
	// sees the spike; a refresh that burns no faster than the budget counts
	// no breach.
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 100; i++ {
		e.Observe("data.nearest", time.Millisecond, false)
	}
	if l := refreshed(e)["nearest_p99"]; l.fast != 0 || l.breaches != 1 || !near(l.slow, 5) { // 10 bad / 200 total / 0.01
		t.Errorf("latency objective = %+v, want fast burn 0, slow burn 5, still one breach", l)
	}

	// Eleven minutes later everything has aged out.
	clock = clock.Add(11 * time.Minute)
	for id, r := range refreshed(e) {
		if r.fast != 0 || r.slow != 0 {
			t.Errorf("%s window did not age out: %+v", id, r)
		}
	}
	if n := testing.AllocsPerRun(10, e.Refresh); n != 0 {
		t.Errorf("Refresh allocates %.0f times", n)
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
	e.Refresh()
	if NewSLOEvaluator(nil) != nil {
		t.Error("empty objective list should disable the evaluator")
	}
}
