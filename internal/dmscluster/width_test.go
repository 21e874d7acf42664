package dmscluster_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
)

// TestClusterOtherWidthIsABadRequest: through the router, reads of another
// sample width than the shards were fitted and ingested with come back as
// the shards' 400, and no shard is charged a failure for answering it.
func TestClusterOtherWidthIsABadRequest(t *testing.T) {
	ctx := context.Background()
	cluster, _ := startCluster(t, 3, dmscluster.Config{Seed: 1, ProbeInterval: -1, BootstrapK: 4, FailAfter: 1})
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "small", Samples: dmsapi.FromCodecSlice(braggCorpus(41, 48))}); err != nil {
		t.Fatal(err)
	}
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 15
	big := dmsapi.FromCodecSlice(regime.Generate(rand.New(rand.NewSource(42)), 4))

	_, certErr := cluster.Certainty(ctx, dmsapi.CertaintyRequest{Samples: big, Threshold: 0.5})
	_, nearErr := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: big})
	_, pdfErr := cluster.PDF(ctx, dmsapi.PDFRequest{Samples: big})
	_, lookErr := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: big})
	for op, err := range map[string]error{"certainty": certErr, "nearest": nearErr, "pdf": pdfErr, "lookup": lookErr} {
		var se *dmsapi.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Fatalf("%s with 15×15 patches through the router: %v, want a 400", op, err)
		}
	}
	st := cluster.Stats()
	if st.HealthyShards != 3 {
		t.Fatalf("%d of 3 shards healthy after the refusals", st.HealthyShards)
	}
	for _, n := range st.Nodes {
		if n.ConsecutiveFails != 0 || n.Ejections != 0 || n.LastError != "" {
			t.Fatalf("shard %s was charged a failure: %+v", n.Addr, n)
		}
	}
}

// TestRouterIngestIsAllOrNothing: an ingest the router refuses stores
// nothing on any shard, as dmsd stores nothing of an ingest it refuses.
// The bad sample sits last, so every good one before it would otherwise
// have reached its shard.
func TestRouterIngestIsAllOrNothing(t *testing.T) {
	ctx := context.Background()
	cluster, _, stores := startClusterStores(t, 3, dmscluster.Config{Seed: 1, ProbeInterval: -1, BootstrapK: 4})
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "seed", Samples: dmsapi.FromCodecSlice(braggCorpus(41, 48))}); err != nil {
		t.Fatal(err)
	}
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{})
	routerAddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(sctx)
	})
	ref, refStore := newShard(t, "ref", 0)
	refAddr, err := ref.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refClient, err := dmsapi.NewClient(refAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer refClient.Close()
	if _, err := refClient.Fit(ctx, braggCorpus(41, 48), 4); err != nil {
		t.Fatal(err)
	}

	good := braggCorpus(43, 12)
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 15
	short := *good[0]
	short.Data = short.Data[:len(short.Data)-1]
	for name, bad := range map[string]*codec.Sample{
		"short payload": &short,
		"other width":   regime.Generate(rand.New(rand.NewSource(44)), 1)[0],
	} {
		batch := append(append([]*codec.Sample(nil), good...), bad)
		before := make([]int, len(stores))
		for i, s := range stores {
			before[i] = s.Count()
		}
		for _, addr := range []string{refAddr, routerAddr} {
			client, err := dmsapi.NewClient(addr)
			if err != nil {
				t.Fatal(err)
			}
			ids, err := client.Ingest("mixed", batch)
			var se *dmsapi.StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, "sample 12") || len(ids) != 0 {
				t.Fatalf("%s on %s: ids %v, err %v; want a 400 naming sample 12", name, addr, ids, err)
			}
			client.Close()
		}
		for i, s := range stores {
			if got := s.Count(); got != before[i] {
				t.Fatalf("%s: shard %d holds %d documents after the refused ingest, %d before", name, i, got, before[i])
			}
		}
		if n := refStore.Count(); n != 0 {
			t.Fatalf("%s: dmsd stored %d samples of a refused ingest", name, n)
		}
	}
}
