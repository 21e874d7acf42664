package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
)

// flatEmbedder embeds every row to zeros: the dashboard never looks at
// the data, only at a daemon's counters.
type flatEmbedder struct{}

func (flatEmbedder) Dim() int                              { return 2 }
func (flatEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor { return tensor.New(x.Dim(0), 2) }

// serve runs h under httptest and counts the requests it answers.
func serve(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &n
}

// dmsd is an unfitted in-memory daemon's request handler.
func dmsd(t *testing.T) http.Handler {
	t.Helper()
	svc, err := fairds.New(flatEmbedder{}, docstore.NewStore().Collection("peaks"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{DS: svc, Zoo: fairms.NewZoo()})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

func hostport(ts *httptest.Server) string { return strings.TrimPrefix(ts.URL, "http://") }

// frames renders n frames the way main does, checking after each that
// the dashboard made exactly one more request of the polled tier.
func frames(t *testing.T, p *poller, requests *atomic.Int64, n int) []string {
	t.Helper()
	var out []string
	for i := 1; i <= n; i++ {
		now := time.Now()
		var b strings.Builder
		if err := render(&b, p, now); err != nil {
			t.Fatal(err)
		}
		p.lastPoll = now
		if got := requests.Load(); got != int64(i) {
			t.Fatalf("after frame %d the polled tier answered %d requests, want one per frame", i, got)
		}
		out = append(out, b.String())
	}
	return out
}

// TestRenderCluster points the dashboard at a router over three shards,
// one of them gone: the frame shows the membership, the dead shard DOWN
// beside two live rows with their own series, the router's endpoint
// table and the SLO ledger — all from the router's one federated scrape.
func TestRenderCluster(t *testing.T) {
	var shards []string
	for i := 0; i < 3; i++ {
		ts, _ := serve(t, dmsd(t))
		shards = append(shards, hostport(ts))
		if i == 2 {
			ts.Close()
		}
	}
	cluster, err := dmscluster.New(dmscluster.Config{Shards: shards, ProbeInterval: 10 * time.Millisecond, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Start()
	t.Cleanup(cluster.Close)
	for deadline := time.Now().Add(10 * time.Second); cluster.Stats().HealthyShards != 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("closed shard never ejected: %+v", cluster.Stats())
		}
	}
	slos, err := obs.ParseSLOs("certainty:p99<5s,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	router, requests := serve(t, dmscluster.NewRouter(cluster, dmscluster.RouterConfig{SLOs: slos}).Handler())

	out := frames(t, newPoller(hostport(router), 5*time.Second), requests, 2)
	for _, want := range []string{"dmstop · router", "2/3 shards healthy", "ENDPOINT", "SLO", "certainty_err"} {
		if !strings.Contains(out[0], want) {
			t.Errorf("frame lacks %q:\n%s", want, out[0])
		}
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out[1], "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = line
		}
	}
	for i, addr := range shards {
		f := strings.Fields(rows[addr])
		if len(f) != 9 {
			t.Fatalf("shard %s row %q", addr, rows[addr])
		}
		dead, ejections := i == 2, "0"
		if dead {
			ejections = "1"
		}
		if dead != (f[1] == "DOWN") || dead != (f[3] == "-") || f[8] != ejections {
			t.Errorf("shard %s (dead %v) row %q", addr, dead, rows[addr])
		}
	}
	// The first frame's scrape is in the router's endpoint table by the
	// second.
	if f := strings.Fields(rows["metricsz"]); len(f) != 6 || f[1] != "1" {
		t.Errorf("router endpoint row %q, want metricsz counted once", rows["metricsz"])
	}
}

// TestRenderSingle points the dashboard at a bare dmsd: its endpoint
// table, from one scrape per frame.
func TestRenderSingle(t *testing.T) {
	ts, requests := serve(t, dmsd(t))
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + dmsapi.PathHealth)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	requests.Store(0)

	out := frames(t, newPoller(hostport(ts), 5*time.Second), requests, 2)
	for _, want := range []string{"dmstop · dmsd", "wal lag -", "ENDPOINT", "P999 MS"} {
		if !strings.Contains(out[1], want) {
			t.Errorf("frame lacks %q:\n%s", want, out[1])
		}
	}
	if strings.Contains(out[1], "SHARD") || strings.Contains(out[1], "SLO") {
		t.Errorf("a dmsd frame drew the cluster view:\n%s", out[1])
	}
	var healthz []string
	for _, line := range strings.Split(out[1], "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "healthz" {
			healthz = f
		}
	}
	if len(healthz) != 6 || healthz[1] != "3" || healthz[2] != "0" {
		t.Errorf("healthz row %q, want 3 requests and no errors", healthz)
	}
}
