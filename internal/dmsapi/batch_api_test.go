package dmsapi

import (
	"errors"
	"net/http"
	"testing"

	"fairdms/internal/codec"
)

// TestIngestBatchEndToEnd drives the batch endpoint over real TCP: the
// first batch bootstrap-fits the clustering model, every document commits,
// and the store and /statsz reflect it.
func TestIngestBatchEndToEnd(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	a, b := twoRegimes(21, 50)

	resp, err := client.IngestBatch("run-a", a)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != len(a) || len(resp.Errors) != 0 {
		t.Fatalf("inserted %d (errors %v), want %d clean", resp.Inserted, resp.Errors, len(a))
	}
	for i, id := range resp.IDs {
		if id == "" {
			t.Fatalf("doc %d missing ID", i)
		}
	}
	// Second batch exercises the post-bootstrap path.
	resp, err = client.IngestBatch("run-b", b)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != len(b) {
		t.Fatalf("second batch inserted %d, want %d", resp.Inserted, len(b))
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Samples != len(a)+len(b) {
		t.Fatalf("store holds %d samples, want %d", h.Samples, len(a)+len(b))
	}
	if h.K == 0 {
		t.Fatal("batch ingest did not bootstrap the clustering model")
	}
	st, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	ep := st.Endpoints["data.ingest_batch"]
	if ep.Count != 2 || ep.Errors != 0 {
		t.Fatalf("ingest_batch endpoint stats = %+v, want 2 clean requests", ep)
	}
}

// TestIngestBatchPartialFailureOverWire: malformed wire documents (bad
// dtype, truncated payload) fail individually; the rest of the batch
// commits — the satellite regression at the API layer.
func TestIngestBatchPartialFailureOverWire(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	a, _ := twoRegimes(22, 12)

	wire := FromCodecSlice(a)
	wire[3].Dtype = 200             // unknown dtype
	wire[7].Data = wire[7].Data[:2] // truncated payload
	wire[9].Shape = []int{0}        // no elements
	var resp IngestBatchResponse
	if err := client.postJSON(PathIngestBatch, IngestBatchRequest{Dataset: "d", Samples: wire}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Inserted != len(a)-3 {
		t.Fatalf("inserted %d, want %d", resp.Inserted, len(a)-3)
	}
	wantBad := map[int]bool{3: true, 7: true, 9: true}
	if len(resp.Errors) != len(wantBad) {
		t.Fatalf("errors = %v, want exactly docs 3, 7, 9", resp.Errors)
	}
	for _, de := range resp.Errors {
		if !wantBad[de.Index] {
			t.Errorf("unexpected per-doc error for %d: %s", de.Index, de.Error)
		}
		if resp.IDs[de.Index] != "" {
			t.Errorf("failed doc %d has an ID", de.Index)
		}
	}
	h, _ := client.Health()
	if h.Samples != len(a)-3 {
		t.Fatalf("store holds %d, want %d", h.Samples, len(a)-3)
	}
}

// TestIngestBatchMixedWidthBootstrap: per-document failure must hold even
// on the very first batch of a fresh daemon (regression: the bootstrap fit
// collated the whole batch and failed the request with 400 on a width
// mismatch that a fitted daemon would report per document).
func TestIngestBatchMixedWidthBootstrap(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	a, _ := twoRegimes(27, 10)
	a[4] = codec.SampleFromFloats([]float64{1, 2, 3, 4}, []int{2, 2}, codec.F64, nil)

	resp, err := client.IngestBatch("first", a)
	if err != nil {
		t.Fatalf("mixed-width bootstrap batch failed wholesale: %v", err)
	}
	if resp.Inserted != len(a)-1 || len(resp.Errors) != 1 || resp.Errors[0].Index != 4 {
		t.Fatalf("resp = %+v, want %d inserted and one error at index 4", resp, len(a)-1)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.K == 0 || h.Samples != len(a)-1 {
		t.Fatalf("health = %+v: bootstrap fit or commits missing", h)
	}
}

// TestIngestBatchSizeCap: batches beyond MaxBatchDocs are rejected with
// 413 before any work happens.
func TestIngestBatchSizeCap(t *testing.T) {
	_, client := startServer(t, ServerConfig{MaxBatchDocs: 4})
	a, _ := twoRegimes(23, 5)
	_, err := client.IngestBatch("d", a)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want 413", err)
	}
	if h, _ := client.Health(); h.Samples != 0 {
		t.Fatalf("capped batch still stored %d documents", h.Samples)
	}
	// At the cap is fine.
	if resp, err := client.IngestBatch("d", a[:4]); err != nil || resp.Inserted != 4 {
		t.Fatalf("at-cap batch: resp=%+v err=%v", resp, err)
	}
}

// TestIngestBatchEmptyIsBadRequest guards the wholesale-failure modes.
func TestIngestBatchEmptyIsBadRequest(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	var resp IngestBatchResponse
	err := client.postJSON(PathIngestBatch, IngestBatchRequest{Dataset: "d"}, &resp)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("empty batch err = %v, want 400", err)
	}
}

// TestStatsHistogramPercentiles: /statsz carries per-endpoint latency
// percentiles from the bucketed histogram, ordered p50 ≤ p95 ≤ p99 ≤ max.
func TestStatsHistogramPercentiles(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	a, _ := twoRegimes(26, 30)
	if _, err := client.IngestBatch("d", a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := client.Certainty(a[:4], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	ep := st.Endpoints["data.certainty"]
	if ep.Count != 20 {
		t.Fatalf("certainty count = %d, want 20", ep.Count)
	}
	if ep.P50MS <= 0 {
		t.Fatalf("p50 = %g, want > 0", ep.P50MS)
	}
	if ep.P50MS > ep.P95MS || ep.P95MS > ep.P99MS {
		t.Fatalf("percentiles out of order: p50=%g p95=%g p99=%g", ep.P50MS, ep.P95MS, ep.P99MS)
	}
	if ep.P99MS > ep.MaxMS*1.01 {
		t.Fatalf("p99 %g exceeds max %g", ep.P99MS, ep.MaxMS)
	}
	if ep.AverageMS <= 0 || ep.TotalMS <= 0 {
		t.Fatalf("avg/total not populated: %+v", ep)
	}
}
