package obs

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("", true)
	ctx := NewContext(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "request")
	ctx2, embed := StartSpan(ctx1, "embed")
	_, inner := StartSpan(ctx2, "encode")
	inner.End()
	embed.End()
	_, probe := StartSpan(ctx1, "index_probe")
	probe.End()
	root.End()

	d := tr.Dump()
	if d.ID == "" || len(d.ID) != 16 {
		t.Fatalf("generated id = %q, want 16 hex chars", d.ID)
	}
	if len(d.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(d.Spans), d.Spans)
	}
	wantParents := map[string]string{"request": "", "embed": "request", "encode": "embed", "index_probe": "request"}
	byIdx := d.Spans
	for _, sp := range d.Spans {
		var parent string
		if sp.Parent >= 0 {
			parent = byIdx[sp.Parent].Name
		}
		if wantParents[sp.Name] != parent {
			t.Errorf("span %s has parent %q, want %q", sp.Name, parent, wantParents[sp.Name])
		}
	}
	names := d.SpanNames()
	if len(names) != 4 || names[0] != "request" {
		t.Errorf("SpanNames = %v", names)
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Sampled() {
		t.Error("nil trace should be inert")
	}
	tr.Dump() // must not panic
	ctx := NewContext(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Error("nil trace must not be stored in context")
	}
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Error("StartSpan without a trace must be inert")
	}
	sp.End() // nil span End must not panic
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("", false)
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	d := tr.Dump()
	if len(d.Spans) != maxSpans {
		t.Errorf("got %d spans, want cap %d", len(d.Spans), maxSpans)
	}
	if d.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", d.Dropped)
	}
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	id, sample := ParseTraceHeader(FormatTraceHeader("deadbeef00112233", true))
	if id != "deadbeef00112233" || !sample {
		t.Errorf("roundtrip = (%q, %v)", id, sample)
	}
	id, sample = ParseTraceHeader("abc123")
	if id != "abc123" || sample {
		t.Errorf("plain id = (%q, %v)", id, sample)
	}
	if id, _ := ParseTraceHeader("DROP TABLE;sample"); id != "" {
		t.Errorf("hostile id survived sanitize: %q", id)
	}
	if id, _ := ParseTraceHeader(strings.Repeat("a", 100)); len(id) != 32 {
		t.Errorf("long id not truncated: %d chars", len(id))
	}
}

func TestDumpEncodeDecodeGraft(t *testing.T) {
	server := NewTrace("aa11", true)
	sctx := NewContext(context.Background(), server)
	sctx, root := StartSpan(sctx, "request")
	_, st := StartSpan(sctx, "store_fetch")
	st.End()
	root.End()
	dump, ok := DecodeDump(EncodeDump(server.Dump()))
	if !ok {
		t.Fatal("encode/decode roundtrip failed")
	}

	client := NewTrace("aa11", true)
	cctx := NewContext(context.Background(), client)
	cctx, cr := StartSpan(cctx, "client_request")
	_, rt := StartSpan(cctx, "http_roundtrip")
	time.Sleep(time.Millisecond)
	rt.End()
	cr.End()
	local := client.Dump()

	merged := Graft(local, 1, dump)
	if len(merged.Spans) != 4 {
		t.Fatalf("merged spans = %d, want 4", len(merged.Spans))
	}
	// Server root must now hang off the client's http_roundtrip span, and
	// every span must reach a root through valid parent links.
	if merged.Spans[2].Name != "request" || merged.Spans[2].Parent != 1 {
		t.Errorf("server root not grafted under http_roundtrip: %+v", merged.Spans[2])
	}
	for i, sp := range merged.Spans {
		seen := 0
		for p := sp.Parent; p != -1; p = merged.Spans[p].Parent {
			if p < 0 || p >= len(merged.Spans) || seen > len(merged.Spans) {
				t.Fatalf("span %d (%s) has broken parent chain", i, sp.Name)
			}
			seen++
		}
	}
	if _, ok := DecodeDump("{not json"); ok {
		t.Error("malformed dump decoded")
	}

	// A remote span naming itself or a later span as parent is re-rooted
	// under at, as an out-of-range parent is, not grafted as a cycle.
	hostile, ok := DecodeDump(`{"spans":[{"name":"a","parent":0},{"name":"b","parent":2},{"name":"c","parent":1}]}`)
	if !ok {
		t.Fatal("hostile dump did not decode")
	}
	one := TraceDump{Spans: []SpanDump{{Name: "root", Parent: -1}}}
	got := Graft(one, 0, hostile)
	for i, want := range []int{-1, 0, 0, 2} {
		if got.Spans[i].Parent != want {
			t.Errorf("span %d (%s) parent = %d, want %d", i, got.Spans[i].Name, got.Spans[i].Parent, want)
		}
	}
}

// TestAttachRemoteGraftsAtDump: a remote tree attached as its trailer
// value is grafted when the trace is dumped, exactly as an eager decode and
// Graft would place it; a malformed, empty or span-less value grafts
// nothing and leaves the local tree as it was.
func TestAttachRemoteGraftsAtDump(t *testing.T) {
	server := NewTrace("bb22", true)
	_, sroot := StartSpan(NewContext(context.Background(), server), "request")
	sroot.End()
	trailer := EncodeDump(server.Dump())

	client := NewTrace("bb22", true)
	cctx, cr := StartSpan(NewContext(context.Background(), client), "route")
	_, rt := StartSpan(cctx, "http_roundtrip")
	rt.End()
	cr.End()
	local := client.Dump()

	for _, bad := range []string{"", "{not json", `{"spans":[]}`, trailer[:len(trailer)-1]} {
		client.AttachRemote(rt.Index(), bad)
	}
	if got := client.Dump(); !reflect.DeepEqual(got, local) {
		t.Fatalf("malformed trailers grafted spans:\n got  %+v\n want %+v", got, local)
	}

	client.AttachRemote(rt.Index(), trailer)
	remote, ok := DecodeDump(trailer)
	if !ok {
		t.Fatal("the server's own trailer does not decode")
	}
	if got, want := client.Dump(), Graft(local, rt.Index(), remote); !reflect.DeepEqual(got, want) {
		t.Fatalf("graft at dump:\n got  %+v\n want %+v", got, want)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dms_test_total", "a test counter")
	c.Add(7)
	r.CounterFunc("dms_func_total", "func-backed", func() int64 { return 42 })
	r.GaugeFunc("dms_depth", "a gauge", func() float64 { return 1.5 })
	h := r.Histogram("dms_latency_seconds", "a summary")
	h.Record(250 * time.Millisecond)
	h.Record(500 * time.Millisecond)
	vec := r.CounterVec("dms_ep_total", "per endpoint", "endpoint")
	vec.With("models.recommend").Inc()
	vec.With("data.ingest").Add(3)
	hv := r.HistogramVec("dms_ep_seconds", "per endpoint latency", "endpoint")
	hv.With("models.recommend").Record(10 * time.Millisecond)
	healthy := true
	r.GaugeVec("dms_node_up", "per node", "node").Func("n1", func() float64 {
		if healthy {
			return 1
		}
		return 0
	})
	vec.Func("data.pdf", func() int64 { return 5 })
	r.Info("dms_build_info", "identity", Label{"go_version", "go1.24"}, Label{"version", "v1.2.3"})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition not well formed: %v\n%s", err, out)
	}
	counts := make(map[string]int, len(fams))
	for _, f := range fams {
		counts[f.Name] = len(f.Samples)
	}
	for fam, want := range map[string]int{
		"dms_test_total":      1,
		"dms_func_total":      1,
		"dms_depth":           1,
		"dms_latency_seconds": 6, // 4 quantiles + sum + count
		"dms_ep_total":        3,
		"dms_ep_seconds":      6,
		"dms_node_up":         1,
		"dms_build_info":      1,
	} {
		if counts[fam] != want {
			t.Errorf("family %s has %d samples, want %d\n%s", fam, counts[fam], want, out)
		}
	}
	for _, want := range []string{
		"# TYPE dms_test_total counter",
		"dms_test_total 7",
		"dms_func_total 42",
		"dms_depth 1.5",
		"# TYPE dms_latency_seconds summary",
		`dms_ep_total{endpoint="data.ingest"} 3`,
		"dms_latency_seconds_count 2",
		`quantile="0.999"`,
		`dms_ep_total{endpoint="data.pdf"} 5`,
		`dms_node_up{node="n1"} 1`,
		`dms_build_info{go_version="go1.24",version="v1.2.3"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A func-backed series is read at every scrape, not at registration.
	healthy = false
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `dms_node_up{node="n1"} 0`) {
		t.Errorf("func-backed series did not follow its source:\n%s", buf.String())
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dms_once_total", "ok")
	mustPanic(t, "duplicate registration", func() { r.Counter("dms_once_total", "again") })
	mustPanic(t, "uppercase name", func() { r.Counter("Bad_Name", "x") })
	mustPanic(t, "dashed name", func() { r.Counter("bad-name", "x") })
	mustPanic(t, "bad label", func() { r.CounterVec("dms_vec_total", "x", "Bad") })
	mustPanic(t, "bad info label", func() { r.Info("dms_info", "x", Label{"Bad", "v"}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"dms_requests_total": true,
		"a":                  true,
		"a1_b2":              true,
		"":                   false,
		"1abc":               false,
		"_abc":               false,
		"camelCase":          false,
		"has-dash":           false,
		"has space":          false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestRegistryRace pins the concurrency contract: recording into
// counters and histograms while another goroutine scrapes must be safe
// under -race and must never block either side.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dms_race_total", "x")
	h := r.Histogram("dms_race_seconds", "x")
	vec := r.CounterVec("dms_race_ep_total", "x", "endpoint")
	var depth int64
	r.CounterFunc("dms_race_func_total", "x", func() int64 { return depth })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Record(time.Duration(n) * time.Microsecond)
					vec.With([]string{"a", "b", "c"}[n%3]).Inc()
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseExposition(buf.Bytes()); err != nil {
			t.Fatalf("scrape %d not well formed: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, bad := range map[string]string{
		"no type":        "dms_x_total 1\n",
		"dup type":       "# TYPE dms_x counter\n# TYPE dms_x counter\ndms_x 1\n",
		"bad value":      "# TYPE dms_x counter\ndms_x notanumber\n",
		"bad name":       "# TYPE Dms_X counter\nDms_X 1\n",
		"unknown type":   "# TYPE dms_x histogram2\ndms_x 1\n",
		"malformed type": "# TYPE dms_x\n",
	} {
		if _, err := ParseExposition([]byte(bad)); err == nil {
			t.Errorf("%s: ParseExposition accepted %q", name, bad)
		}
	}
}
