package obs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// buildTestRegistry populates a registry with one family of every series
// shape: plain counter, counter func, gauge func, settable gauge, labeled
// counter vec, labeled gauge vec, func-backed members of both vecs, an
// info gauge, plain summary, labeled summary vec.
func buildTestRegistry() *Registry {
	reg := NewRegistry()
	c := reg.Counter("dms_requests_total", "Requests served.")
	c.Add(42)
	reg.CounterFunc("dms_wal_appends_total", "WAL appends.", func() int64 { return 7 })
	reg.GaugeFunc("dms_goroutines", "Goroutines now.", func() float64 { return 12.5 })
	g := reg.Gauge("dms_in_flight", "Requests in flight.")
	g.Set(3)
	cv := reg.CounterVec("dms_errors_total", "Errors by endpoint.", "endpoint")
	cv.With("data.nearest").Add(2)
	cv.With("models.recommend").Add(5)
	gv := reg.GaugeVec("dms_shard_epoch", "Ring epoch by shard.", "shard")
	gv.With("n1").Set(4)
	gv.Func("n2", func() float64 { return 0 })
	cv.Func("data.pdf", func() int64 { return 9 })
	reg.Info("dms_build_info", "The running build.", Label{"go_version", "go1.24"}, Label{"revision", `a"b\c`})
	h := reg.Histogram("dms_request_seconds", "Request latency.")
	h.Record(3 * time.Millisecond)
	h.Record(9 * time.Millisecond)
	hv := reg.HistogramVec("dms_op_seconds", "Latency by op.", "op")
	hv.With("nearest").Record(2 * time.Millisecond)
	return reg
}

func render(t *testing.T, reg *Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.Bytes()
}

// TestParseExpositionLossless pins the inverse contract with the
// renderer: ParseExposition(render(reg)) captures every family and
// sample, and RenderExposition reproduces the registry bytes exactly.
func TestParseExpositionLossless(t *testing.T) {
	src := render(t, buildTestRegistry())
	fams, err := ParseExposition(src)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}

	byName := make(map[string]Family)
	for _, f := range fams {
		byName[f.Name] = f
	}
	checks := []struct {
		name, typ string
		samples   int
	}{
		{"dms_requests_total", "counter", 1},
		{"dms_wal_appends_total", "counter", 1},
		{"dms_goroutines", "gauge", 1},
		{"dms_in_flight", "gauge", 1},
		{"dms_errors_total", "counter", 3},
		{"dms_shard_epoch", "gauge", 2},
		{"dms_build_info", "gauge", 1},
		{"dms_request_seconds", "summary", len(quantiles) + 2},
		{"dms_op_seconds", "summary", len(quantiles) + 2},
	}
	if len(fams) != len(checks) {
		t.Fatalf("parsed %d families, want %d", len(fams), len(checks))
	}
	for _, c := range checks {
		f, ok := byName[c.name]
		if !ok {
			t.Fatalf("family %q missing", c.name)
		}
		if f.Type != c.typ || len(f.Samples) != c.samples {
			t.Errorf("%s: got type=%s samples=%d, want %s/%d", c.name, f.Type, len(f.Samples), c.typ, c.samples)
		}
		if f.Help == "" {
			t.Errorf("%s: help lost", c.name)
		}
	}

	// Spot-check values and labels survive.
	if v := byName["dms_requests_total"].Samples[0].Value; v != 42 {
		t.Errorf("counter value = %v, want 42", v)
	}
	errs := byName["dms_errors_total"]
	if got := errs.Samples[0].Get("endpoint"); got != "data.nearest" {
		t.Errorf("vec label = %q, want data.nearest", got)
	}
	if info := byName["dms_build_info"].Samples[0]; info.Value != 1 || info.Get("revision") != `a"b\c` {
		t.Errorf("info series = %+v, want 1 with its labels intact", info)
	}
	sum := byName["dms_request_seconds"]
	var sawSum, sawCount, sawQ bool
	for _, s := range sum.Samples {
		switch s.Suffix {
		case "_sum":
			sawSum = s.Value > 0
		case "_count":
			sawCount = s.Value == 2
		default:
			sawQ = sawQ || s.Get("quantile") == "0.99"
		}
	}
	if !sawSum || !sawCount || !sawQ {
		t.Errorf("summary lines lost: sum=%v count=%v q99=%v", sawSum, sawCount, sawQ)
	}

	// Byte-level inverse on registry output.
	if got := RenderExposition(fams); !bytes.Equal(got, src) {
		t.Errorf("render(parse(x)) != x:\n--- got ---\n%s\n--- want ---\n%s", got, src)
	}
}

// TestParseExpositionEscapes pins label and help escaping through the
// full escape pipeline (escapeLabel + %q on labels, escapeHelp on help).
func TestParseExpositionEscapes(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("dms_weird_total", `Help with \backslash and
newline.`, "path")
	cv.With(`a"b\c
d`).Add(1)
	src := render(t, reg)
	fams, err := ParseExposition(src)
	if err != nil {
		t.Fatalf("ParseExposition: %v", err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families", len(fams))
	}
	if want := "Help with \\backslash and\nnewline."; fams[0].Help != want {
		t.Errorf("help = %q, want %q", fams[0].Help, want)
	}
	if want := "a\"b\\c\nd"; fams[0].Samples[0].Get("path") != want {
		t.Errorf("label = %q, want %q", fams[0].Samples[0].Get("path"), want)
	}
	if got := RenderExposition(fams); !bytes.Equal(got, src) {
		t.Errorf("escape round trip not byte-identical:\n got %q\nwant %q", got, src)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := []struct{ name, input string }{
		{"no type", "dms_x_total 1\n"},
		{"bad value", "# TYPE dms_x_total counter\ndms_x_total nope\n"},
		{"unknown type", "# TYPE dms_x histogram\ndms_x 1\n"},
		{"unterminated labels", "# TYPE dms_x gauge\ndms_x{a=\"b 1\n"},
		{"double declaration", "# TYPE dms_x gauge\n# TYPE dms_x gauge\ndms_x 1\n"},
		{"bad name", "# TYPE BadName counter\nBadName 1\n"},
		{"label value not a quoted string", "# TYPE dms_x gauge\ndms_x{a=\"\\q\"} 1\n"},
		{"family named like a summary line", "# TYPE dms_x summary\n# TYPE dms_x_count counter\n"},
	}
	for _, c := range cases {
		if _, err := ParseExposition([]byte(c.input)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.input)
		}
	}
}

// shardExposition builds one shard's parsed metrics with the given
// request count, error count, and latency samples.
func shardExposition(t *testing.T, node string, reqs, errs int64, lat []time.Duration) NodeExposition {
	t.Helper()
	reg := NewRegistry()
	reg.Counter("dms_requests_total", "Requests served.").Add(reqs)
	reg.Counter("dms_errors_total", "Errors.").Add(errs)
	reg.GaugeFunc("dms_in_flight", "In flight.", func() float64 { return float64(reqs) / 10 })
	h := reg.Histogram("dms_request_seconds", "Latency.")
	for _, d := range lat {
		h.Record(d)
	}
	fams, err := ParseExposition(render(t, reg))
	if err != nil {
		t.Fatalf("parse shard %s: %v", node, err)
	}
	return NodeExposition{Node: node, Families: fams}
}

func findFamily(t *testing.T, fams []Family, name string) Family {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("family %q not in federated output", name)
	return Family{}
}

func TestFederateMerge(t *testing.T) {
	nodes := []NodeExposition{
		shardExposition(t, "127.0.0.1:7001", 100, 3, []time.Duration{time.Millisecond, 2 * time.Millisecond}),
		shardExposition(t, "127.0.0.1:7002", 50, 1, []time.Duration{8 * time.Millisecond}),
		shardExposition(t, "127.0.0.1:7003", 10, 0, nil),
	}
	fams := Federate(nodes)

	out := RenderExposition(fams)
	if _, err := ParseExposition(out); err != nil {
		t.Fatalf("federated output fails ParseExposition: %v\n%s", err, out)
	}

	// Per-node series carry the node label.
	perNode := findFamily(t, fams, "dms_requests_total")
	if len(perNode.Samples) != 3 {
		t.Fatalf("per-node samples = %d, want 3", len(perNode.Samples))
	}
	seen := make(map[string]float64)
	for _, s := range perNode.Samples {
		seen[s.Get(NodeLabel)] = s.Value
	}
	if seen["127.0.0.1:7002"] != 50 {
		t.Errorf("node series lost: %v", seen)
	}

	// Counters sum.
	fleetReq := findFamily(t, fams, "dms_fleet_requests_total")
	if fleetReq.Type != "counter" || len(fleetReq.Samples) != 1 || fleetReq.Samples[0].Value != 160 {
		t.Errorf("fleet counter = %+v, want single sample 160", fleetReq)
	}

	// Gauges expose min/max/mean via the stat label.
	fleetGauge := findFamily(t, fams, "dms_fleet_in_flight")
	stats := make(map[string]float64)
	for _, s := range fleetGauge.Samples {
		stats[s.Get("stat")] = s.Value
	}
	if stats["min"] != 1 || stats["max"] != 10 || stats["mean"] != 16.0/3 {
		t.Errorf("fleet gauge stats = %v", stats)
	}

	// Summaries merge: _count and _sum add exactly.
	fleetSum := findFamily(t, fams, "dms_fleet_request_seconds")
	var count, sum float64
	for _, s := range fleetSum.Samples {
		switch s.Suffix {
		case "_count":
			count = s.Value
		case "_sum":
			sum = s.Value
		}
	}
	if count != 3 {
		t.Errorf("fleet summary count = %v, want 3", count)
	}
	if sum < 0.010 || sum > 0.012 { // 1+2+8 ms
		t.Errorf("fleet summary sum = %v, want ~0.011", sum)
	}
}

// TestFederateOrderIndependent pins the hdrhist-merge property the design
// leans on: fleet quantiles must not depend on scrape order.
func TestFederateOrderIndependent(t *testing.T) {
	mk := func() []NodeExposition {
		return []NodeExposition{
			shardExposition(t, "a", 1000, 0, []time.Duration{time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond}),
			shardExposition(t, "b", 500, 2, []time.Duration{2 * time.Millisecond}),
			shardExposition(t, "c", 20, 9, []time.Duration{90 * time.Millisecond, 3 * time.Millisecond}),
		}
	}
	base := mk()
	want := summaryValues(t, Federate(base))
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		shuffled := mk()
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := summaryValues(t, Federate(shuffled))
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("trial %d: fleet %s = %v, want %v (order-dependent merge)", trial, k, got[k], v)
			}
		}
	}
}

// summaryValues extracts every fleet-summary sample keyed by
// suffix/quantile for comparison across input orders.
func summaryValues(t *testing.T, fams []Family) map[string]float64 {
	t.Helper()
	f := findFamily(t, fams, "dms_fleet_request_seconds")
	out := make(map[string]float64)
	for _, s := range f.Samples {
		key := s.Suffix
		if key == "" {
			key = "q" + s.Get("quantile")
		}
		out[key] = s.Value
	}
	return out
}

// TestFederateDropsAbsentNodes pins the age-out contract: federation only
// reflects the expositions passed in, so a shard that stops being scraped
// (ejected, dead) contributes nothing.
func TestFederateDropsAbsentNodes(t *testing.T) {
	live := shardExposition(t, "live", 10, 0, nil)
	dead := shardExposition(t, "dead", 99, 0, nil)
	withDead := Federate([]NodeExposition{live, dead})
	if n := len(findFamily(t, withDead, "dms_requests_total").Samples); n != 2 {
		t.Fatalf("want 2 node series before ejection, got %d", n)
	}
	after := Federate([]NodeExposition{live})
	for _, s := range findFamily(t, after, "dms_requests_total").Samples {
		if s.Get(NodeLabel) == "dead" {
			t.Fatal("dead node's series survived ejection")
		}
	}
	if v := findFamily(t, after, "dms_fleet_requests_total").Samples[0].Value; v != 10 {
		t.Errorf("fleet sum still includes dead node: %v", v)
	}
}

func TestFleetName(t *testing.T) {
	if got := fleetName("dms_requests_total"); got != "dms_fleet_requests_total" {
		t.Errorf("fleetName dms_ = %q", got)
	}
	if got := fleetName("go_goroutines"); got != "dms_fleet_go_goroutines" {
		t.Errorf("fleetName other = %q", got)
	}
}

func TestFederateEmpty(t *testing.T) {
	if fams := Federate(nil); len(fams) != 0 {
		t.Errorf("Federate(nil) = %d families", len(fams))
	}
	if out := RenderExposition(nil); len(out) != 0 {
		t.Errorf("RenderExposition(nil) = %q", out)
	}
	if strings.TrimSpace(string(RenderExposition([]Family{}))) != "" {
		t.Error("empty render not empty")
	}
}
