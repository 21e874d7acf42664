package e2e

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fairdms/internal/dmsapi"
)

// certaintyBody is one hand-built JSON request at the shape fairdms
// ingests (a 9×9 float32 patch of zeros); certainty, lookup and nearest
// all take it.
var certaintyBody = []byte(fmt.Sprintf(`{"samples":[{"shape":[9,9],"dtype":3,"data":%q}],"threshold":0.5}`,
	base64.StdEncoding.EncodeToString(make([]byte, 9*9*4))))

const recommendBody = `{"pdf":[0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125]}`

// state is what a daemon answers about everything it knows: the raw
// /v1/models body, /healthz's k and fit, and the raw answers to a
// recommend and to the hand-built certainty, lookup and nearest requests.
// Each is a 200: a restored daemon is fitted, not 409 not_fitted.
func state(t *testing.T, c *dmsapi.Client) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	raw := func(method, path string, body []byte) {
		out, err := c.DoRaw(ctx, method, path, body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		fmt.Fprintf(&b, "%s %s\n%s\n", method, path, out)
	}
	raw("GET", dmsapi.PathModels, nil)
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "k %d fit %q\n", h.K, h.Fit)
	raw("POST", dmsapi.PathRecommend, []byte(recommendBody))
	for _, path := range []string{dmsapi.PathCertainty, dmsapi.PathLookup, dmsapi.PathNearest} {
		raw("POST", path, certaintyBody)
	}
	return b.String()
}

// TestDmsdOnAWAL drives one WAL-durable dmsd through the Fig. 5 workflow
// client and three restarts: a kill -9, a refused restart under another
// embedder, and a clean stop that compacts into a checkpoint.
func TestDmsdOnAWAL(t *testing.T) {
	walDir := t.TempDir()
	daemon := []string{"-wal-dir", walDir, "-fsync", "interval"}
	d, c := serve(t, "dmsd", daemon...)

	// The exposition carries the core families with their types and, on a
	// WAL-backed daemon, every dms_wal_* family.
	fams := metrics(t, c)
	wantType(t, fams, "counter", "dms_requests_total", "dms_retained_traces_total",
		"dms_wal_appends_total", "dms_wal_bytes_total", "dms_wal_syncs_total", "dms_wal_replays_total",
		"dms_wal_torn_truncations_total", "dms_wal_corrupt_records_total", "dms_wal_compactions_total",
		"dms_wal_replayed_txns_total", "dms_wal_replay_skipped_ops_total", "dms_wal_rotations_total",
		"dms_wal_segments_removed_total")
	wantType(t, fams, "gauge", "dms_in_flight")
	wantType(t, fams, "summary", "dms_endpoint_latency_seconds")
	if _, ok := fams["dms_uptime_seconds"]; !ok {
		t.Error("no dms_uptime_seconds family")
	}
	if s := fams["dms_build_info"].Samples; len(s) == 0 || s[0].Get("go_version") == "" {
		t.Errorf("dms_build_info carries no go_version: %+v", s)
	}

	// Trace retention is on by default: /debug/tracez answers (an empty
	// ring is fine; a 404 would mean retention is off).
	var traces dmsapi.TracezResponse
	if err := c.DoJSON(context.Background(), "GET", dmsapi.PathTraces, nil, &traces); err != nil {
		t.Fatalf("GET %s: %v", dmsapi.PathTraces, err)
	}

	// The training plane through the workflow client: ingest, certainty,
	// lookup, then one /v1/train job for each of scans 3 and 4, polled to
	// done and its checkpoint loaded. Both jobs warm-start from the zoo.
	run(t, "fairdms", "-dms", d.addr, "-server-train", "-scans", "5")
	fams = metrics(t, c)
	wantValue(t, fams, 2, "dms_train_submitted_total")
	wantValue(t, fams, 2, "dms_train_completed_total")
	wantValue(t, fams, 0, "dms_train_failed_total")
	wantValue(t, fams, 2, "dms_train_warm_starts_total")

	// fairdms frames every sample it sends; one hand-built JSON request
	// gets a JSON answer.
	resp, err := http.Post("http://"+d.addr+dmsapi.PathCertainty, "application/json", bytes.NewReader(certaintyBody))
	if err != nil {
		t.Fatal(err)
	}
	var cert map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&cert)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("JSON certainty: status %d, Content-Type %q", resp.StatusCode, ct)
	}
	if _, ok := cert["certainty"]; err != nil || !ok {
		t.Fatalf("JSON certainty answered %v (decode error %v), want a certainty field", cert, err)
	}

	// Everything the daemon knows is in -wal-dir, written before it is
	// acknowledged: after kill -9, with no client sending a fit, it comes
	// back fitted, with every model in the same order, and answers the
	// same bytes.
	before := state(t, c)
	if !strings.Contains(before, `"id":"braggnn-scan04"`) {
		t.Fatalf("no train-registered model braggnn-scan04 in:\n%s", before)
	}
	if !regexp.MustCompile(`fit "[0-9a-f]`).MatchString(before) {
		t.Fatalf("not fitted after the workflow:\n%s", before)
	}
	d.kill()

	// A daemon under another embedder refuses the directory rather than
	// serve neighbours from two embedding spaces.
	refused := launch(t, "dmsd", append([]string{"-addr", "127.0.0.1:0", "-seed", "2"}, daemon...)...)
	if err := refused.exited(t); err == nil {
		t.Fatalf("dmsd -seed 2 started over a -seed 1 directory:\n%s", refused.log)
	}
	if !strings.Contains(refused.log.String(), "recorded under embedder") {
		t.Fatalf("dmsd -seed 2 failed without naming the embedder mismatch:\n%s", refused.log)
	}

	d, c = serve(t, "dmsd", daemon...)
	if after := state(t, c); after != before {
		t.Fatalf("state changed across kill -9:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The workflow client again: its models answer 409 and are reused, and
	// it downloads and loads a train-registered checkpoint.
	run(t, "fairdms", "-dms", d.addr, "-server-train", "-scans", "5")

	// A clean stop compacts the log into a checkpoint; the next daemon on
	// the directory comes back with every stored sample, all of them in
	// the vector index before any request.
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Samples == 0 {
		t.Fatal("no samples stored after two workflow runs")
	}
	d.stop(t)
	if fi, err := os.Stat(filepath.Join(walDir, "checkpoint.wal")); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint after SIGTERM: %v", err)
	}
	d, c = serve(t, "dmsd", daemon...)
	after, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if after.Samples != h.Samples {
		t.Fatalf("restart from checkpoint: %d samples before the stop, %d after", h.Samples, after.Samples)
	}
	wantValue(t, metrics(t, c), float64(after.Samples), "dms_index_size")
	d.stop(t)
}
