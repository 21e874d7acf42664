package e2e

import "testing"

// TestThreeTiers runs the paper's deployment as processes: dstore plays
// MongoDB, dmsd -store serves the fairDMS services over it, and the Fig. 5
// workflow client calls dmsd. Everything dmsd knows lives in dstore, so a
// dmsd killed hard and restarted over the same dstore answers the same
// bytes.
func TestThreeTiers(t *testing.T) {
	store := listen(t, "dstore")
	d, c := serve(t, "dmsd", "-store", store.addr)
	run(t, "fairdms", "-dms", d.addr, "-server-train", "-scans", "5")

	// dmsd reports its store round trips by wire op, none of them failed:
	// dms_store_rpc_errors_total has a series only for an op that failed.
	fams := metrics(t, c)
	wantType(t, fams, "counter", "dms_store_rpcs_total")
	wantType(t, fams, "summary", "dms_store_rpc_seconds")
	if errs := fams["dms_store_rpc_errors_total"].Samples; len(errs) > 0 {
		t.Errorf("failed store round trips: %+v", errs)
	}
	var rpcs float64
	for _, s := range fams["dms_store_rpcs_total"].Samples {
		if s.Get("op") == "" {
			t.Errorf("dms_store_rpcs_total sample without an op label: %+v", s)
		}
		rpcs += s.Value
	}
	if rpcs == 0 {
		t.Error("dms_store_rpcs_total counted no round trips")
	}
	wantValue(t, fams, 2, "dms_train_submitted_total")
	wantValue(t, fams, 2, "dms_train_completed_total")
	wantValue(t, fams, 0, "dms_train_failed_total")
	wantValue(t, fams, 2, "dms_train_warm_starts_total")

	before := state(t, c)
	d.kill()
	_, c = serve(t, "dmsd", "-store", store.addr)
	if after := state(t, c); after != before {
		t.Fatalf("state changed across a dmsd kill -9 over one dstore:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
