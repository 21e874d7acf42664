package dmsapi

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/obs"
	"fairdms/internal/wal"
)

// startDurableServer boots a Server whose data service sits on a
// WAL-durable docstore, with the WalStats hook wired the way cmd/dmsd
// wires it.
func startDurableServer(t *testing.T) (*Server, *Client, *docstore.DurableStore) {
	t.Helper()
	ds, err := docstore.OpenDurable(docstore.DurableOptions{Dir: t.TempDir(), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	svc, err := fairds.New(idEmbedder{dim: 6}, ds.Collection("peaks"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := startServer(t, ServerConfig{DS: svc, WalStats: ds.WalStats})
	return srv, client, ds
}

// TestStatsReportsWal: after ingesting through a WAL-durable store, the
// dms_wal_* families on /metricsz carry live append counters. The fsync
// policy is configuration, not a counter; the store reports it.
func TestStatsReportsWal(t *testing.T) {
	_, client, ds := startDurableServer(t)
	a, _ := twoRegimes(17, 24)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	if ws := ds.WalStats(); !ws.Enabled || ws.Policy != "always" {
		t.Fatalf("wal stats = %+v; want enabled with policy always", ws)
	}
	m := scrape(t, client)
	if m["dms_wal_appends_total"] == 0 || m["dms_wal_bytes_total"] == 0 || m["dms_wal_syncs_total"] == 0 {
		t.Fatalf("ingest produced no WAL traffic: appends %v, bytes %v, syncs %v",
			m["dms_wal_appends_total"], m["dms_wal_bytes_total"], m["dms_wal_syncs_total"])
	}
}

// TestStatsOmitsWalWithoutHook: a plain in-memory server has no
// dms_wal_* series.
func TestStatsOmitsWalWithoutHook(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	for series := range scrape(t, client) {
		if strings.HasPrefix(series, "dms_wal_") {
			t.Fatalf("%s on a memory-only server; want absent", series)
		}
	}
}

// TestMetricszExposesWalFamilies: the dms_wal_* counter families appear
// on /metricsz when (and only when) the WalStats hook is installed.
func TestMetricszExposesWalFamilies(t *testing.T) {
	srv, client, _ := startDurableServer(t)
	a, _ := twoRegimes(19, 24)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(body); err != nil {
		t.Fatalf("invalid exposition:\n%s\nerror: %v", body, err)
	}
	for _, fam := range []string{
		"dms_wal_appends_total", "dms_wal_bytes_total", "dms_wal_syncs_total",
		"dms_wal_replays_total", "dms_wal_replayed_records_total",
		"dms_wal_torn_truncations_total", "dms_wal_corrupt_records_total",
		"dms_wal_compactions_total", "dms_wal_replayed_txns_total",
		"dms_wal_replay_skipped_ops_total", "dms_wal_rotations_total",
		"dms_wal_segments_removed_total",
	} {
		if !strings.Contains(string(body), "# TYPE "+fam+" counter") {
			t.Errorf("family %s missing from /metricsz", fam)
		}
	}

	plain, _ := startServer(t, ServerConfig{})
	resp2, err := http.Get("http://" + plain.Addr() + PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(body2), "dms_wal_") {
		t.Error("dms_wal_* families present on a memory-only server")
	}
}

// TestIngestBatchIsOneWALRecord: under fsync always, one 256-document
// batch through the ingest-batch handler costs exactly one WAL append
// and one fsync, the batch's one commit record. The first batch, which
// also bootstrap-fits and logs the fit document, is left out.
func TestIngestBatchIsOneWALRecord(t *testing.T) {
	_, client, ds := startDurableServer(t)
	a, b := twoRegimes(23, 256)
	if _, err := client.IngestBatch("bootstrap", a); err != nil {
		t.Fatal(err)
	}
	before := ds.WalStats()
	resp, err := client.IngestBatch("stream", b)
	if err != nil || resp.Inserted != len(b) {
		t.Fatalf("batch inserted %d (errors %v), %v; want %d", resp.Inserted, resp.Errors, err, len(b))
	}
	after := ds.WalStats()
	if appends, syncs := after.Appends-before.Appends, after.Syncs-before.Syncs; appends != 1 || syncs != 1 {
		t.Fatalf("a 256-document batch made %d WAL appends and %d fsyncs; want 1 and 1", appends, syncs)
	}
}
