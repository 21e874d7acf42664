package dmsapi

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/obs"
)

// scrape reads /metricsz through c and flattens it to series → value,
// a series keyed by its family name, sample suffix and labels in
// exposition order: dms_endpoint_latency_seconds_count{endpoint="healthz"}.
func scrape(t *testing.T, c *Client) map[string]float64 {
	t.Helper()
	body, err := c.DoRaw(context.Background(), "GET", PathMetrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("invalid exposition:\n%s\nerror: %v", body, err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		for _, s := range f.Samples {
			key := f.Name + s.Suffix
			if len(s.Labels) > 0 {
				parts := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// traced posts in to path inside a sampled obs trace rooted at a
// client_request span — the joined shape a router's shard call has — and
// returns the trace, the server's span tree grafted under the round trip.
func traced(t *testing.T, c *Client, path string, in, out any) obs.TraceDump {
	t.Helper()
	tr := obs.NewTrace("", true)
	ctx, root := obs.StartSpan(obs.NewContext(context.Background(), tr), "client_request")
	err := c.DoJSON(ctx, "POST", path, in, out)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	return tr.Dump()
}

// spanIndex returns the index of the first span with the given name, or -1.
func spanIndex(d obs.TraceDump, name string) int {
	for i, sp := range d.Spans {
		if sp.Name == name {
			return i
		}
	}
	return -1
}

// hasAncestor reports whether walking parents from span i reaches span anc.
func hasAncestor(d obs.TraceDump, i, anc int) bool {
	for hops := 0; i >= 0 && hops <= len(d.Spans); hops++ {
		if i == anc {
			return true
		}
		i = d.Spans[i].Parent
	}
	return false
}

// TestTraceSpansThreeTiers runs the full deployment shape — a docstore TCP
// server, a dmsapi server using it through fairds.RemoteCollection, and a
// client inside a sampled trace — and checks that one sampled request
// comes back as a single contiguous span tree: the client's spans, the
// server's grafted under the round trip, and the fairds stage spans under
// the server's request root.
func TestTraceSpansThreeTiers(t *testing.T) {
	dsrv := docstore.NewServer(docstore.NewStore(), docstore.ServerConfig{})
	daddr, err := dsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dsrv.Close() })
	dcl, err := docstore.Dial(daddr, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dcl.Close)
	svc, err := fairds.New(idEmbedder{dim: 6}, fairds.RemoteCollection{Client: dcl, Name: "peaks"}, fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	_, client := startServer(t, ServerConfig{DS: svc})

	a, _ := twoRegimes(5, 24)
	ingest := traced(t, client, PathIngest, IngestRequest{Dataset: "regime-a", Samples: FromCodecSlice(a)}, &IngestResponse{})
	nearest := traced(t, client, PathNearest, NearestRequest{Samples: FromCodecSlice(a[:3])}, &NearestResponse{})

	// The ingest trace must reach the store round trip: the store_insert
	// stage runs inside fairds but spans the docstore TCP exchange.
	assertContiguous(t, "ingest", ingest)
	for _, name := range []string{"client_request", "http_roundtrip", "request", "embed", "store_insert"} {
		if spanIndex(ingest, name) < 0 {
			t.Errorf("ingest trace missing span %q (have %v)", name, ingest.SpanNames())
		}
	}

	assertContiguous(t, "nearest", nearest)
	// At least four named stages spanning client → server → fairds.
	want := []string{"client_request", "http_roundtrip", "request", "embed"}
	for _, name := range want {
		if spanIndex(nearest, name) < 0 {
			t.Errorf("nearest trace missing span %q (have %v)", name, nearest.SpanNames())
		}
	}
	if spanIndex(nearest, "index_probe") < 0 {
		t.Errorf("nearest trace has no index_probe: %v", nearest.SpanNames())
	}
	if n := len(nearest.SpanNames()); n < 4 {
		t.Fatalf("nearest trace has %d named stages, want >= 4: %v", n, nearest.SpanNames())
	}

	// Tier ordering: the server's request span hangs under the client's
	// round trip, and the fairds embed stage under the server's request.
	root, rt, req, emb := spanIndex(nearest, "client_request"),
		spanIndex(nearest, "http_roundtrip"), spanIndex(nearest, "request"), spanIndex(nearest, "embed")
	if !hasAncestor(nearest, rt, root) {
		t.Error("http_roundtrip is not under client_request")
	}
	if !hasAncestor(nearest, req, rt) {
		t.Error("server request span was not grafted under the client round trip")
	}
	if !hasAncestor(nearest, emb, req) {
		t.Error("fairds embed span is not under the server request span")
	}
}

// assertContiguous checks the dump is one tree: exactly one root and every
// parent index in range.
func assertContiguous(t *testing.T, label string, d obs.TraceDump) {
	t.Helper()
	roots := 0
	for i, sp := range d.Spans {
		switch {
		case sp.Parent == -1:
			roots++
		case sp.Parent < 0 || sp.Parent >= len(d.Spans):
			t.Fatalf("%s trace span %d (%s) has out-of-range parent %d", label, i, sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("%s trace has %d roots, want 1 contiguous tree: %+v", label, roots, d.Spans)
	}
}

// TestMetricszExposition scrapes /metricsz after live traffic and checks
// the response is valid Prometheus text carrying every server family,
// including the build identity, the per-endpoint vectors and (with
// training enabled) the trainer counters.
func TestMetricszExposition(t *testing.T) {
	srv, client := startServer(t, ServerConfig{TrainWorkers: 1})
	a, _ := twoRegimes(13, 24)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	pdf, err := client.PDF(a[:6])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recommend(pdf, 0); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", PathMetrics, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("invalid exposition:\n%s\nerror: %v", body, err)
	}
	families := make(map[string]int, len(fams))
	for _, f := range fams {
		families[f.Name] = len(f.Samples)
	}

	want := []string{
		"dms_uptime_seconds", "dms_build_info", "dms_requests_total", "dms_shed_total",
		"dms_in_flight", "dms_cluster_k",
		"dms_cache_hits_total", "dms_cache_misses_total", "dms_cache_coalesced_total",
		"dms_cache_evictions_total", "dms_cache_size",
		"dms_index_size", "dms_index_hits_total",
		"dms_index_probed_total", "dms_index_corrupt_total",
		"dms_retained_traces_total",
		"dms_train_submitted_total", "dms_train_completed_total",
		"dms_train_failed_total", "dms_train_canceled_total",
		"dms_train_warm_starts_total", "dms_train_cold_starts_total",
		"dms_train_queue_depth", "dms_train_active",
		"dms_endpoint_errors_total", "dms_endpoint_latency_seconds",
	}
	for _, name := range want {
		if families[name] == 0 {
			t.Errorf("exposition missing family %s", name)
		}
	}

	// The scrape and the server's own accessor read the same atomic: the
	// requests counter in the exposition must match what Requests saw.
	var exported float64
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "dms_requests_total "); ok {
			exported, err = strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				t.Fatalf("unparseable dms_requests_total sample %q", line)
			}
		}
	}
	if exported < 3 {
		t.Errorf("dms_requests_total = %v after >=3 requests", exported)
	}
	if got := srv.Requests(); float64(got) < exported-1 { // scrape itself may add one
		t.Errorf("Requests() = %d disagrees with exposition %v", got, exported)
	}
}

// getTracez fetches GET /debug/tracez with an optional query string.
func getTracez(t *testing.T, addr, query string) (int, TracezResponse) {
	t.Helper()
	resp, err := http.Get("http://" + addr + PathTraces + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out TracezResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestTracezRetainsSlowOperations runs a server whose threshold is one
// nanosecond — every data request and training job is slow — and checks
// the ring serves them newest first with full span trees, that the
// server's own observability surfaces never enter it, and the query
// filters.
func TestTracezRetainsSlowOperations(t *testing.T) {
	srv, client := startServer(t, ServerConfig{SlowThreshold: time.Nanosecond, TrainWorkers: 1})
	if _, err := client.Ingest("scan-00", trainMeanSamples(17, 40)); err != nil {
		t.Fatal(err)
	}
	req := trainRequest("slow-job")
	req.Epochs = 3
	job, err := client.SubmitTrain(req)
	if err != nil {
		t.Fatal(err)
	}
	if job, err = client.WaitTrain(job.ID, 5*time.Millisecond, time.Minute); err != nil || job.State != "done" {
		t.Fatalf("train job: state %q, err %v", job.State, err)
	}
	scrape(t, client)
	if _, err := client.PDF(trainMeanSamples(18, 6)); err != nil {
		t.Fatal(err)
	}

	code, out := getTracez(t, srv.Addr(), "")
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d", PathTraces, code)
	}
	if out.Total < 4 || len(out.Traces) < 4 {
		t.Fatalf("ring total=%d traces=%d after ingest, submit, job and pdf", out.Total, len(out.Traces))
	}
	if out.Traces[0].Op != "data.pdf" {
		t.Errorf("not newest-first: first entry is %s", out.Traces[0].Op)
	}
	// Unsampled requests still retain their span trees — that is the point
	// of the always-on ring.
	seen := map[string]bool{}
	for _, e := range out.Traces {
		seen[e.Op] = true
		root := "request"
		if e.Op == "train.job" {
			root = "train_job"
		}
		if spanIndex(e.Trace, root) < 0 {
			t.Errorf("%s entry has no %s span: %v", e.Op, root, e.Trace.SpanNames())
		}
		if e.Op == "data.ingest" && spanIndex(e.Trace, "embed") < 0 {
			t.Errorf("ingest entry lost its stage spans: %v", e.Trace.SpanNames())
		}
		if e.Error != "" || e.Degraded {
			t.Errorf("clean slow entry flagged: %+v", e)
		}
	}
	for _, op := range []string{"data.ingest", "train.submit", "train.job", "data.pdf"} {
		if !seen[op] {
			t.Errorf("ring never saw %s: %v", op, seen)
		}
	}
	for _, op := range []string{"healthz", "metricsz", "tracez"} {
		if seen[op] {
			t.Errorf("meta endpoint %s was retained", op)
		}
	}

	if _, out = getTracez(t, srv.Addr(), "?op=data.ingest"); len(out.Traces) != 1 || out.Traces[0].Op != "data.ingest" {
		t.Errorf("op filter: %+v", out.Traces)
	}
	if code, out = getTracez(t, srv.Addr(), "?min_ms=3600000"); code != http.StatusOK || len(out.Traces) != 0 || out.Total < 4 {
		t.Errorf("min_ms filter: status %d, %d traces, total %d", code, len(out.Traces), out.Total)
	}
	if code, _ = getTracez(t, srv.Addr(), "?min_ms=soon"); code != http.StatusBadRequest {
		t.Errorf("bad min_ms: status %d, want 400", code)
	}
}

// TestTracezRetainsFailuresOnly runs a server nothing is slow on: clean
// fast requests leave the ring empty, a failed request and a failed
// training job are kept with their error.
func TestTracezRetainsFailuresOnly(t *testing.T) {
	srv, client := startServer(t, ServerConfig{SlowThreshold: time.Hour, TrainWorkers: 1})
	a, _ := twoRegimes(17, 24)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Nearest(a[:3], false); err != nil {
		t.Fatal(err)
	}
	if _, out := getTracez(t, srv.Addr(), ""); out.Total != 0 || len(out.Traces) != 0 {
		t.Fatalf("fast clean requests were retained: %+v", out)
	}

	if _, err := client.DoRaw(context.Background(), "POST", PathCertainty, []byte("{")); err == nil {
		t.Fatal("malformed certainty succeeded")
	}
	req := trainRequest("doomed")
	req.Dataset = "no-such-dataset"
	job, err := client.SubmitTrain(req)
	if err != nil {
		t.Fatal(err)
	}
	if job, err = client.WaitTrain(job.ID, 5*time.Millisecond, time.Minute); err != nil || job.State != "failed" {
		t.Fatalf("train job on a missing dataset: state %q, err %v", job.State, err)
	}

	_, out := getTracez(t, srv.Addr(), "?error=true")
	if out.Total != 2 || len(out.Traces) != 2 {
		t.Fatalf("retained %d (total %d), want the failed job and the failed request: %+v", len(out.Traces), out.Total, out.Traces)
	}
	if e := out.Traces[0]; e.Op != "train.job" || e.Error == "" || spanIndex(e.Trace, "train_job") < 0 {
		t.Errorf("failed job entry: %+v", e)
	}
	if e := out.Traces[1]; e.Op != "data.certainty" || e.Error == "" || spanIndex(e.Trace, "request") < 0 {
		t.Errorf("failed request entry: %+v", e)
	}
	if _, out = getTracez(t, srv.Addr(), "?error=false"); len(out.Traces) != 0 {
		t.Errorf("error=false matched %+v", out.Traces)
	}
}

func TestTracezDisabledIs404(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{}) // no SlowThreshold
	if code, _ := getTracez(t, srv.Addr(), ""); code != http.StatusNotFound {
		t.Fatalf("tracez without a threshold: status %d, want 404", code)
	}
}

// TestStatsBuildInfo checks /metricsz identifies the running build and
// reports the tail percentile.
func TestStatsBuildInfo(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	for i := 0; i < 4; i++ {
		if _, err := client.Health(); err != nil {
			t.Fatal(err)
		}
	}
	body, err := client.DoRaw(context.Background(), "GET", PathMetrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	var build *obs.SampleLine
	for _, f := range fams {
		if f.Name == "dms_build_info" && len(f.Samples) == 1 {
			build = &f.Samples[0]
		}
	}
	if build == nil || build.Value != 1 {
		t.Fatalf("dms_build_info missing or not one constant series: %+v", build)
	}
	if v := build.Get("go_version"); v == "" || v == "unknown" {
		t.Errorf("go_version = %q", v)
	}
	if build.Get("version") == "" || build.Get("revision") == "" {
		t.Errorf("version %q / revision %q must at least be \"unknown\"", build.Get("version"), build.Get("revision"))
	}
	m := scrape(t, client)
	if up := m["dms_uptime_seconds"]; up <= 0 {
		t.Errorf("dms_uptime_seconds = %v", up)
	}
	p99 := m[`dms_endpoint_latency_seconds{endpoint="healthz",quantile="0.99"}`]
	p999 := m[`dms_endpoint_latency_seconds{endpoint="healthz",quantile="0.999"}`]
	if p999 <= 0 || p999 < p99 {
		t.Errorf("healthz p999=%v p99=%v after %v requests", p999, p99, m[`dms_endpoint_latency_seconds_count{endpoint="healthz"}`])
	}
}
