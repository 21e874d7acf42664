package dmscluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/obs"
)

// httpGet fetches a router path and returns status + body.
func httpGet(t *testing.T, addr, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

func findFam(fams []obs.Family, name string) *obs.Family {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}

// sampleValue is the value of family name's sample labeled key=value
// (its first sample when key is ""), and whether there is one.
func sampleValue(fams []obs.Family, name, key, value string) (float64, bool) {
	if f := findFam(fams, name); f != nil {
		for _, s := range f.Samples {
			if key == "" || s.Get(key) == value {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// federatedNodes is the set of node labels on the shard series of a
// router scrape — every family but the router's own dms_router_* ones,
// whose per-node health names every configured shard, live or not.
func federatedNodes(fams []obs.Family) map[string]bool {
	nodes := make(map[string]bool)
	for _, f := range fams {
		if strings.HasPrefix(f.Name, "dms_router_") {
			continue
		}
		for _, s := range f.Samples {
			if n := s.Get(obs.NodeLabel); n != "" {
				nodes[n] = true
			}
		}
	}
	return nodes
}

// TestRouterObservabilityPlane is the end-to-end acceptance test for the
// fleet observability plane: one federated /metricsz scrape carries every
// shard's series node-labeled plus dms_fleet_* aggregates; killing a
// shard mid-workload leaves degraded and errored traces in /debug/tracez,
// burns the SLO error budget visibly in the dms_slo_* families,
// and ages the dead shard's series out of the next scrape.
func TestRouterObservabilityPlane(t *testing.T) {
	ctx := context.Background()
	slos, err := obs.ParseSLOs("certainty:p99<5s,err<1%;nearest:p99<5s")
	if err != nil {
		t.Fatal(err)
	}
	cluster, servers := startCluster(t, 3, dmscluster.Config{
		BootstrapK: 4, Seed: 1, ProbeInterval: -1, FailAfter: 1,
	})
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{
		SLOs:      slos,
		TraceRing: 64,
	})
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(sctx)
	})
	client, err := dmsapi.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	all := braggCorpus(29, 96)
	corpus, queries := all[:80], all[80:]
	if resp, err := client.IngestBatch("obs", corpus); err != nil || len(resp.Errors) > 0 {
		t.Fatalf("ingest: err=%v, doc errors=%v", err, resp.Errors)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Certainty(queries[:8], 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Nearest(queries[8:], true); err != nil {
			t.Fatal(err)
		}
	}

	shardAddrs := make([]string, 0, 3)
	for _, n := range cluster.Stats().Nodes {
		shardAddrs = append(shardAddrs, n.Addr)
	}

	// Phase 1: the federated exposition. One GET must yield a valid
	// exposition carrying every shard's series under its node label plus
	// the fleet aggregates and SLO families.
	code, body := httpGet(t, addr, dmsapi.PathMetrics)
	if code != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d", code)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("federated exposition invalid: %v", err)
	}
	federated := federatedNodes(fams)
	for _, sa := range shardAddrs {
		if !federated[sa] {
			t.Fatalf("federated exposition has no series for shard %s", sa)
		}
		if v, ok := sampleValue(fams, "dms_router_node_healthy", obs.NodeLabel, sa); !ok || v != 1 {
			t.Fatalf("dms_router_node_healthy{node=%q} = %v (present %v), want 1", sa, v, ok)
		}
	}
	perNode := findFam(fams, "dms_requests_total")
	if perNode == nil {
		t.Fatal("per-node dms_requests_total family missing")
	}
	nodes := make(map[string]bool)
	var perNodeSum float64
	for _, s := range perNode.Samples {
		nodes[s.Get(obs.NodeLabel)] = true
		perNodeSum += s.Value
	}
	if len(nodes) != 3 {
		t.Fatalf("dms_requests_total covers %d nodes, want 3: %v", len(nodes), nodes)
	}
	fleet := findFam(fams, "dms_fleet_requests_total")
	if fleet == nil || len(fleet.Samples) != 1 {
		t.Fatalf("dms_fleet_requests_total missing or multi-sample: %+v", fleet)
	}
	if got := fleet.Samples[0].Value; got != perNodeSum || got <= 0 {
		t.Fatalf("fleet counter %v != per-node sum %v", got, perNodeSum)
	}
	for _, name := range []string{"dms_slo_budget", "dms_slo_fast_burn", "dms_slo_slow_burn"} {
		if findFam(fams, name) == nil {
			t.Fatalf("SLO family %s missing from exposition", name)
		}
	}

	// Phase 2: kill one shard mid-workload. Queries keep succeeding
	// degraded; one malformed request burns the certainty error budget.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	servers[2].Shutdown(shutCtx)
	// A certainty asks one shard, so it notices a dead one only when its
	// turn comes; a fan-out read finds it at once, and from the ejection on
	// every read is flagged: the membership is not whole.
	if _, err := client.Nearest(queries[8:], false); err != nil {
		t.Fatalf("nearest with one shard down: %v", err)
	}
	for i := 0; i < 3; i++ {
		var cr dmsapi.CertaintyResponse
		req := dmsapi.CertaintyRequest{Samples: dmsapi.FromCodecSlice(queries[:8]), Threshold: 0.5}
		if err := client.DoJSON(ctx, "POST", dmsapi.PathCertainty, req, &cr); err != nil {
			t.Fatalf("certainty with one shard down: %v", err)
		}
		if !cr.Degraded {
			t.Fatal("post-kill certainty must be flagged degraded")
		}
	}
	badResp, err := http.Post("http://"+addr+dmsapi.PathCertainty, "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed certainty: status %d, want 400", badResp.StatusCode)
	}

	// Tail-based retention: the degraded and errored requests were kept.
	var tracez struct {
		Total  int64            `json:"total_retained"`
		Traces []obs.TraceEntry `json:"traces"`
	}
	code, body = httpGet(t, addr, dmsapi.PathTraces+"?degraded=true&op=data.certainty")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/tracez: status %d", code)
	}
	if err := json.Unmarshal(body, &tracez); err != nil {
		t.Fatalf("tracez response: %v", err)
	}
	if len(tracez.Traces) < 3 || tracez.Total < 3 {
		t.Fatalf("tracez retained %d degraded traces (total %d), want >= 3", len(tracez.Traces), tracez.Total)
	}
	for _, e := range tracez.Traces {
		if !e.Degraded || e.Op != "data.certainty" || len(e.Trace.Spans) == 0 {
			t.Fatalf("retained degraded trace malformed: %+v", e)
		}
	}
	code, body = httpGet(t, addr, dmsapi.PathTraces+"?error=true")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/tracez?error=true: status %d", code)
	}
	if err := json.Unmarshal(body, &tracez); err != nil {
		t.Fatal(err)
	}
	if len(tracez.Traces) == 0 || tracez.Traces[0].Error == "" {
		t.Fatalf("errored request not retained: %+v", tracez.Traces)
	}

	// SLO burn: one error among the certainty requests blows the 1%
	// budget, so the fast burn must exceed 1 and the scrape that sees it
	// count a breach. The router's identity rides the same scrape.
	code, body = httpGet(t, addr, dmsapi.PathMetrics)
	if code != http.StatusOK {
		t.Fatalf("GET /metricsz: status %d", code)
	}
	if fams, err = obs.ParseExposition(body); err != nil {
		t.Fatal(err)
	}
	up, _ := sampleValue(fams, "dms_router_uptime_seconds", "", "")
	build := findFam(fams, "dms_router_build_info")
	if up <= 0 || build == nil || len(build.Samples) != 1 || build.Samples[0].Get("go_version") == "" {
		t.Fatalf("router identity incomplete: uptime=%v build=%+v", up, build)
	}
	if budget := findFam(fams, "dms_slo_budget"); budget == nil || len(budget.Samples) != 3 {
		t.Fatalf("dms_slo_budget covers %+v, want 3 objectives", budget)
	}
	fast, ok := sampleValue(fams, "dms_slo_fast_burn", "objective", "certainty_err")
	if !ok {
		t.Fatal("certainty_err objective missing from dms_slo_fast_burn")
	}
	breaches, _ := sampleValue(fams, "dms_slo_breaches_total", "objective", "certainty_err")
	if fast <= 1 || breaches == 0 {
		t.Fatalf("certainty error budget should be burning: fast burn %v, breaches %v", fast, breaches)
	}

	// Phase 3: the dead shard's series age out — the next scrape covers
	// only the surviving membership, and the exposition stays valid.
	st := cluster.Stats()
	var dead string
	for _, n := range st.Nodes {
		if !n.Healthy {
			dead = n.Addr
		}
	}
	if dead == "" {
		t.Fatalf("no shard ejected after kill: %+v", st.Nodes)
	}
	code, body = httpGet(t, addr, dmsapi.PathMetrics)
	if code != http.StatusOK {
		t.Fatalf("GET /metricsz after kill: status %d", code)
	}
	if fams, err = obs.ParseExposition(body); err != nil {
		t.Fatalf("post-kill exposition invalid: %v", err)
	}
	federated = federatedNodes(fams)
	if federated[dead] {
		t.Fatalf("dead shard %s still present in federated exposition", dead)
	}
	if v, ok := sampleValue(fams, "dms_router_node_healthy", obs.NodeLabel, dead); !ok || v != 0 {
		t.Fatalf("dms_router_node_healthy{node=%q} = %v (present %v), want 0", dead, v, ok)
	}
	live := 0
	for _, sa := range shardAddrs {
		if sa != dead && federated[sa] {
			live++
		}
	}
	if live != 2 {
		t.Fatalf("post-kill exposition covers %d surviving shards, want 2", live)
	}
	if !strings.Contains(string(body), fmt.Sprintf("dms_slo_fast_burn{objective=%q}", "certainty_err")) {
		t.Fatal("dms_slo_fast_burn{objective=\"certainty_err\"} series missing")
	}
	_ = ctx
}
