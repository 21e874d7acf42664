package dmscluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/obs"
)

// exchange is what a client can observe of one request.
type exchange struct {
	status    int
	code      dmsapi.ErrorCode
	retryable bool
	trailer   string // root span name of the X-Dms-Trace-Spans trailer, "" without one
	retained  bool   // the tier's /debug/tracez gained an entry
}

// retainedTotal reads a tier's total_retained from /debug/tracez.
func retainedTotal(t *testing.T, addr string) int64 {
	t.Helper()
	code, body := httpGet(t, addr, dmsapi.PathTraces)
	if code != http.StatusOK {
		t.Fatalf("GET %s on %s: status %d", dmsapi.PathTraces, addr, code)
	}
	var out dmsapi.TracezResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Total
}

func doExchange(t *testing.T, addr, method, path, traceHeader, contentType string, body []byte) exchange {
	t.Helper()
	before := retainedTotal(t, addr)
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeader, traceHeader)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s on %s: %v", method, path, addr, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body) // trailers arrive once the body is drained
	if err != nil {
		t.Fatal(err)
	}
	ex := exchange{status: resp.StatusCode}
	if resp.StatusCode/100 != 2 {
		var er dmsapi.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("%s %s on %s: status %d without an envelope: %q", method, path, addr, resp.StatusCode, data)
		}
		ex.code, ex.retryable = er.Error.Code, er.Error.Retryable
	}
	if d, ok := obs.DecodeDump(resp.Trailer.Get(obs.SpanHeader)); ok && len(d.Spans) > 0 {
		ex.trailer = d.Spans[0].Name
	}
	ex.retained = retainedTotal(t, addr) > before
	return ex
}

// startTiers boots a dmsd-shaped server (unfitted, bootstrap K 3, failures
// retained in /debug/tracez) and a router in front of that same server,
// both capping request bodies at bodyCap.
func startTiers(t *testing.T, bodyCap int64, trainWorkers int) (shard, router string) {
	t.Helper()
	svc, err := fairds.New(poolEmbedder{dim: 6}, docstore.NewStore().Collection("peaks"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{
		DS: svc, Zoo: fairms.NewZoo(), BootstrapK: 3,
		MaxBodyBytes: bodyCap, SlowThreshold: time.Hour,
		TrainWorkers: trainWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	shard, err = srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := dmscluster.New(dmscluster.Config{Shards: []string{shard}, BootstrapK: 3, Seed: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rt := dmscluster.NewRouterBodyCap(cluster, dmscluster.RouterConfig{TraceRing: 64}, bodyCap)
	router, err = rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		cluster.Close()
		srv.Shutdown(ctx)
	})
	return shard, router
}

// TestPipelineParity drives the same requests at a dmsd-shaped server and
// at a router in front of that same server, and checks a client cannot
// tell the tiers apart: equal status, envelope code and retryability,
// a span trailer exactly when the request asked for one, and the same
// requests kept in each tier's /debug/tracez (failures only: neither
// tier's slow threshold is reachable here).
func TestPipelineParity(t *testing.T) {
	const bodyCap = 64 << 10
	shard, router := startTiers(t, bodyCap, 0)

	corpus := braggCorpus(31, 40)
	client, err := dmsapi.NewClient(router)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	for i := 0; i < len(corpus); i += 8 { // batches under the body cap
		if resp, err := client.IngestBatch("parity", corpus[i:i+8]); err != nil || len(resp.Errors) > 0 {
			t.Fatalf("seeding through the router: err=%v, doc errors=%v", err, resp.Errors)
		}
	}
	nearest, err := json.Marshal(dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(corpus[:2])})
	if err != nil {
		t.Fatal(err)
	}
	// The same requests framed: the encoding is one more thing the tiers
	// have to agree on.
	frames := dmsapi.ContentTypeFrames
	framed := frameCaller{t: t}.encode
	framedNearest := framed(dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(corpus[:2])})
	badDtype := dmsapi.FromCodecSlice(corpus[:2])
	badDtype[1].Dtype = 99

	cases := []struct {
		name, method, path, trace string
		contentType               string
		body                      []byte
		want                      exchange // trailer holds whether one is wanted, not its name
		only                      string   // a route only this tier serves
	}{
		{name: "success", method: "POST", path: dmsapi.PathNearest, body: nearest,
			want: exchange{status: 200}},
		{name: "success, client sampled", method: "POST", path: dmsapi.PathNearest, body: nearest, trace: "abc123;sample",
			want: exchange{status: 200, trailer: "yes"}},
		{name: "trace id without sample", method: "POST", path: dmsapi.PathNearest, body: nearest, trace: "abc123",
			want: exchange{status: 200}},
		{name: "handler error", method: "POST", path: dmsapi.PathCertainty, body: []byte(`{"samples":[]}`),
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "malformed body", method: "POST", path: dmsapi.PathNearest, body: []byte("{"),
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "malformed body on the shard-only draw route", method: "POST", path: dmsapi.PathDraw, body: []byte("{"), only: "dmsd",
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "oversized body", method: "POST", path: dmsapi.PathNearest, body: bytes.Repeat([]byte(" "), bodyCap+1),
			want: exchange{status: 413, code: dmsapi.CodeTooLarge, retained: true}},
		{name: "framed success", method: "POST", path: dmsapi.PathNearest, contentType: frames, body: framedNearest,
			want: exchange{status: 200}},
		{name: "framed success, client sampled", method: "POST", path: dmsapi.PathNearest, contentType: frames, body: framedNearest, trace: "abc123;sample",
			want: exchange{status: 200, trailer: "yes"}},
		{name: "framed handler error", method: "POST", path: dmsapi.PathCertainty, contentType: frames, body: framed(dmsapi.CertaintyRequest{}),
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "framed unknown dtype", method: "POST", path: dmsapi.PathCertainty, contentType: frames, body: framed(dmsapi.CertaintyRequest{Samples: badDtype}),
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "truncated frame", method: "POST", path: dmsapi.PathNearest, contentType: frames, body: framedNearest[:len(framedNearest)-7],
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "JSON under the frame type", method: "POST", path: dmsapi.PathNearest, contentType: frames, body: nearest,
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "frame under the JSON type", method: "POST", path: dmsapi.PathNearest, contentType: "application/json", body: framedNearest,
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "framed body on a route whose type carries no samples", method: "POST", path: dmsapi.PathRecommend, contentType: frames, body: framedNearest,
			want: exchange{status: 400, code: dmsapi.CodeBadRequest, retained: true}},
		{name: "oversized framed body", method: "POST", path: dmsapi.PathNearest, contentType: frames,
			body: framed(dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(slices.Repeat(corpus, 4))}),
			want: exchange{status: 413, code: dmsapi.CodeTooLarge, retained: true}},
		{name: "unknown model", method: "GET", path: "/v1/models/nope/checkpoint",
			want: exchange{status: 404, code: dmsapi.CodeNotFound, retained: true}},
		{name: "meta endpoint", method: "GET", path: dmsapi.PathHealth,
			want: exchange{status: 200}},
		{name: "meta endpoint, client sampled", method: "GET", path: dmsapi.PathHealth, trace: "abc123;sample",
			want: exchange{status: 200, trailer: "yes"}},
	}
	tiers := []struct{ name, addr, rootSpan string }{
		{"dmsd", shard, "request"},
		{"router", router, "route"},
	}
	for _, tc := range cases {
		for _, tier := range tiers {
			if tc.only != "" && tc.only != tier.name {
				continue
			}
			want := tc.want
			if want.trailer != "" {
				want.trailer = tier.rootSpan
			}
			got := doExchange(t, tier.addr, tc.method, tc.path, tc.trace, tc.contentType, tc.body)
			if got != want {
				t.Errorf("%s on %s:\n  got  %+v\n  want %+v", tc.name, tier.name, got, want)
			}
		}
	}
}
