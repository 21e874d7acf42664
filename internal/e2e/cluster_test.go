package e2e

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/obs"
)

// workload runs four concurrent Fig. 5 workflow clients against addr
// (ingest, certainty, lookup, PDF, recommend, checkpoint download, model
// registration; fine-tuning stays local) and fails the test unless every
// one exits 0.
func workload(t *testing.T, addr, pass string) {
	t.Helper()
	var wg sync.WaitGroup
	outs, errs := make([]string, 4), make([]error, 4)
	for w := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[w], errs[w] = runErr("fairdms", "-dms", addr, "-scans", "20")
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("fairdms client %d failed in the %s pass: %v\n%s", w, pass, err, outs[w])
		}
	}
}

// nodes returns the node labels on the families a router federates from
// its shards: every family but its own dms_router_* ones, which name
// every shard whatever its health.
func nodes(fams map[string]obs.Family) map[string]bool {
	seen := make(map[string]bool)
	for name, f := range fams {
		if strings.HasPrefix(name, "dms_router_") {
			continue
		}
		for _, s := range f.Samples {
			if n := s.Get("node"); n != "" {
				seen[n] = true
			}
		}
	}
	return seen
}

// TestClusterWithAShardKill runs three dmsd shards behind dmsrouter with
// objectives, drives them with concurrent workflow clients, then kills a
// shard hard and drives the two survivors.
func TestClusterWithAShardKill(t *testing.T) {
	// Distinct -node-id values (per-shard document-ID namespaces), one
	// -seed (replicated models agree, so scatter reductions are exact).
	shards := make([]*proc, 3)
	addrs := make([]string, 3)
	for i := range shards {
		shards[i] = listen(t, "dmsd", "-node-id", "s"+strconv.Itoa(i), "-seed", "1")
		addrs[i] = shards[i].addr
	}
	// Loose latency objectives (the host is shared and noisy) but a real
	// error objective, on the endpoints the workflow client drives: the
	// workload must not burn error budget.
	router, c := serve(t, "dmsrouter", "-shards", strings.Join(addrs, ","), "-probe-interval", "200ms",
		"-slo", "certainty:p99<2s,err<5%;lookup:p99<2s")

	workload(t, router.addr, "healthy")

	// One federated scrape carries every shard's series under its node
	// label, the fleet aggregates, the router's identity and the SLO
	// families, and agrees on full membership.
	fams := metrics(t, c)
	wantValue(t, fams, 3, "dms_router_healthy_shards")
	for _, a := range addrs {
		if !nodes(fams)[a] {
			t.Errorf("federated %s has no series of shard %s", dmsapi.PathMetrics, a)
		}
	}
	wantType(t, fams, "counter", "dms_fleet_requests_total")
	wantType(t, fams, "gauge", "dms_slo_budget", "dms_slo_fast_burn")
	if s := fams["dms_router_build_info"].Samples; len(s) == 0 || s[0].Get("go_version") == "" {
		t.Errorf("dms_router_build_info carries no go_version: %+v", s)
	}
	if _, ok := value(fams, "dms_slo_budget", "objective", "certainty_p99"); !ok {
		t.Errorf("no dms_slo_budget series for objective certainty_p99: %+v", fams["dms_slo_budget"].Samples)
	}

	// Kill one shard hard; the health probes eject it.
	dead := addrs[2]
	shards[2].kill()
	deadline := time.Now().Add(waitFor)
	for {
		fams = metrics(t, c)
		if v, ok := value(fams, "dms_router_node_healthy", "node", dead); ok && v == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %s not ejected within %v", dead, waitFor)
		}
		time.Sleep(100 * time.Millisecond)
	}
	wantValue(t, fams, 2, "dms_router_healthy_shards")

	// The same clients complete cleanly against the two survivors: the
	// ejected shard is routed around, reads merge with the degraded flag
	// (still 200s), and the models of the healthy pass answer 409 and are
	// reused.
	workload(t, router.addr, "degraded")

	// Tail-based retention kept the degraded reads with their span trees.
	var traces dmsapi.TracezResponse
	if err := c.DoJSON(context.Background(), "GET", dmsapi.PathTraces+"?degraded=true", nil, &traces); err != nil {
		t.Fatalf("GET %s: %v", dmsapi.PathTraces, err)
	}
	kept := false
	for _, e := range traces.Traces {
		kept = kept || (e.Degraded && len(e.Trace.Spans) > 0)
	}
	if !kept {
		t.Errorf("no degraded trace with spans retained: %+v", traces)
	}

	// The dead shard's series aged out of the federated exposition; only
	// the router's own health view still names it.
	if fed := nodes(metrics(t, c)); fed[dead] || !fed[addrs[0]] {
		t.Errorf("federated node labels after the kill: %v, want %s and not %s", fed, addrs[0], dead)
	}

	// One dashboard snapshot of the degraded fleet renders.
	top := run(t, "dmstop", "-addr", router.addr, "-once")
	for _, want := range []string{"2/3 shards healthy", "DOWN", "SLO"} {
		if !strings.Contains(top, want) {
			t.Errorf("dmstop -once does not show %q:\n%s", want, top)
		}
	}
	router.stop(t)
}
