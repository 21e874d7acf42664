package loadgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/tensor"
	"fairdms/internal/vecindex"
)

// poolEmbedder is the deterministic training-free embedder used across the
// repo's service tests.
type poolEmbedder struct{ dim int }

func (e poolEmbedder) Dim() int { return e.dim }
func (e poolEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), e.dim)
	feats := x.Dim(1)
	chunk := (feats + e.dim - 1) / e.dim
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		for d := 0; d < e.dim; d++ {
			lo := d * chunk
			hi := min(lo+chunk, feats)
			s := 0.0
			for _, v := range row[lo:hi] {
				s += v
			}
			if hi > lo {
				out.Set(s/float64(hi-lo), i, d)
			}
		}
	}
	return out
}

var _ embed.Embedder = poolEmbedder{}

// startDaemon boots a daemon-shaped dmsapi server over real TCP.
func startDaemon(t *testing.T) string {
	t.Helper()
	store := docstore.NewStore().Collection("peaks")
	ds, err := fairds.New(poolEmbedder{dim: 6}, store, fairds.Config{Seed: 1, Index: vecindex.NewFlat()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{
		DS: ds, Zoo: fairms.NewZoo(), BootstrapK: 4, TrainWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return addr
}

// TestRunMixedWorkload drives a live server with every op for a short
// window and checks the report is complete and error-free: counts, ordered
// percentiles, server delta, docs ingested.
func TestRunMixedWorkload(t *testing.T) {
	addr := startDaemon(t)
	rep, err := Run(Config{
		Addr:     addr,
		Workers:  3,
		Duration: 600 * time.Millisecond,
		Mix: map[Op]int{
			OpIngestBatch: 1, OpCertainty: 1, OpNearest: 1, OpRecommend: 1,
		},
		BatchSize: 16,
		QuerySize: 4,
		SetupDocs: 64,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("run produced %d errors: %+v", rep.TotalErrors, rep.Ops)
	}
	if rep.TotalRequests == 0 {
		t.Fatal("no requests issued")
	}
	for _, op := range []Op{OpIngestBatch, OpCertainty, OpNearest, OpRecommend} {
		st, ok := rep.Ops[string(op)]
		if !ok || st.Count == 0 {
			t.Fatalf("op %s missing from report or never ran: %+v", op, rep.Ops)
		}
		if st.P50MS <= 0 || st.P50MS > st.P95MS || st.P95MS > st.P99MS {
			t.Fatalf("op %s percentiles malformed: %+v", op, st)
		}
		if st.P99MS > st.MaxMS*1.01 {
			t.Fatalf("op %s p99 %g exceeds max %g", op, st.P99MS, st.MaxMS)
		}
	}
	if rep.DocsIngested < int64(rep.Ops[string(OpIngestBatch)].Count)*16 {
		t.Fatalf("docs ingested %d < ingest ops × batch", rep.DocsIngested)
	}
	if rep.Server == nil || rep.Server.Requests < rep.TotalRequests {
		t.Fatalf("server delta missing or undercounted: %+v (client saw %d)", rep.Server, rep.TotalRequests)
	}
	if rep.Server.Errors != 0 {
		t.Fatalf("server endpoint errors during window: %+v", rep.Server)
	}
	if rep.ThroughputRPS <= 0 || rep.DurationSeconds <= 0 {
		t.Fatalf("throughput/duration not populated: %+v", rep)
	}
}

// TestRunTrainOp drives the server-side training path: a low-weight train
// op in the mix must complete jobs end to end (submit → poll → done) with
// zero errors and record their latency like any other op.
func TestRunTrainOp(t *testing.T) {
	addr := startDaemon(t)
	rep, err := Run(Config{
		Addr:        addr,
		Workers:     2,
		Duration:    600 * time.Millisecond,
		Mix:         map[Op]int{OpNearest: 2, OpTrain: 1},
		QuerySize:   8,
		SetupDocs:   64,
		TrainEpochs: 2,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalErrors != 0 {
		t.Fatalf("run produced %d errors: %+v", rep.TotalErrors, rep.Ops)
	}
	st, ok := rep.Ops[string(OpTrain)]
	if !ok || st.Count == 0 {
		t.Fatalf("train op missing from report or never ran: %+v", rep.Ops)
	}
	if st.P50MS <= 0 {
		t.Fatalf("train op latency not recorded: %+v", st)
	}
	// Each completed job registered a checkpoint, and the /statsz delta
	// covers the submit/get traffic.
	client, err := dmsapi.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stats, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Train == nil || stats.Train.Completed < st.Count {
		t.Fatalf("server train gauges %+v, want >= %d completed", stats.Train, st.Count)
	}
}

// TestReportRoundTripsAsJSON pins the BENCH_dmsapi.json contract: the file
// is valid JSON carrying throughput and p50/p95/p99 for every op in the mix.
func TestReportRoundTripsAsJSON(t *testing.T) {
	addr := startDaemon(t)
	rep, err := Run(Config{
		Addr:      addr,
		Workers:   2,
		Duration:  300 * time.Millisecond,
		Mix:       map[Op]int{OpIngestBatch: 1, OpNearest: 2},
		SetupDocs: 32,
		BatchSize: 8,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_dmsapi.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("BENCH_dmsapi.json is not valid JSON: %v", err)
	}
	if back.TotalRequests != rep.TotalRequests || back.ThroughputRPS != rep.ThroughputRPS {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}
	for op := range rep.Mix {
		st, ok := back.Ops[op]
		if !ok {
			t.Fatalf("op %s missing from serialized report", op)
		}
		if st.Throughput <= 0 || st.P50MS <= 0 || st.P95MS <= 0 || st.P99MS <= 0 {
			t.Fatalf("op %s missing throughput/percentiles after round trip: %+v", op, st)
		}
	}
	// Ops excluded from the mix must not appear.
	if _, ok := back.Ops[string(OpRecommend)]; ok {
		t.Fatal("recommend ran despite zero weight")
	}
	if back.Summary() == "" {
		t.Fatal("empty human summary")
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("ingest_batch:1, certainty:2,nearest:0,recommend:5,train:1")
	if err != nil {
		t.Fatal(err)
	}
	want := map[Op]int{OpIngestBatch: 1, OpCertainty: 2, OpNearest: 0, OpRecommend: 5, OpTrain: 1}
	for op, w := range want {
		if mix[op] != w {
			t.Fatalf("mix[%s] = %d, want %d", op, mix[op], w)
		}
	}
	for _, bad := range []string{"", "certainty", "certainty:x", "certainty:-1", "frobnicate:3"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run without an address should fail")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", Mix: map[Op]int{"bogus": 1}}); err == nil {
		t.Fatal("Run with an unknown op should fail")
	}
	if _, err := Run(Config{Addr: "127.0.0.1:1", Mix: map[Op]int{OpNearest: 0}}); err == nil {
		t.Fatal("Run with an all-zero mix should fail")
	}
}
