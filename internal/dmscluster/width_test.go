package dmscluster_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"testing"

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
