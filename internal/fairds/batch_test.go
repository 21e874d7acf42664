package fairds

import (
	"context"
	"strings"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/wal"
)

// fitService returns a service whose clustering model is fitted on regime-a
// data, ready for ingest.
func fitService(t *testing.T) *Service {
	t.Helper()
	svc := newService(t)
	a, _ := twoRegimes(11, 40)
	x, err := Collate(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestIngestBatchMatchesSerial pins parity: the batch path must store the
// same documents (payload, cluster, dataset) as the serial path would.
func TestIngestBatchMatchesSerial(t *testing.T) {
	a, _ := twoRegimes(12, 60)

	serial := fitService(t)
	if _, err := serial.IngestLabeled(a, "run-a"); err != nil {
		t.Fatal(err)
	}

	batched := fitService(t)
	res, err := batched.IngestLabeledBatchContext(context.Background(), a, "run-a", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected per-doc errors: %v", res.Errors)
	}
	if got := res.Inserted(); got != len(a) {
		t.Fatalf("inserted %d, want %d", got, len(a))
	}
	if batched.StoreCount() != serial.StoreCount() {
		t.Fatalf("store counts diverge: batch %d vs serial %d", batched.StoreCount(), serial.StoreCount())
	}
	for i, id := range res.IDs {
		if id == "" {
			t.Fatalf("doc %d has no ID despite empty error list", i)
		}
	}

	// Every batch-ingested document must round-trip and match its input.
	got, err := batched.GetSamples(res.IDs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if got[i].Elems() != a[i].Elems() {
			t.Fatalf("doc %d: %d elements, want %d", i, got[i].Elems(), a[i].Elems())
		}
		gf, wf := got[i].Floats(), a[i].Floats()
		for j := range wf {
			if gf[j] != wf[j] {
				t.Fatalf("doc %d: payload diverges at elem %d", i, j)
			}
		}
	}

	// And the index must have adopted them: nearest on an ingested sample
	// finds an exact (distance ~0) neighbor.
	m, err := batched.NearestMatchesExcluding(context.Background(), a[:1], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].Dist > 1e-9 {
		t.Fatalf("nearest distance after batch ingest = %g, want ~0", m[0].Dist)
	}
}

// TestIngestBatchPartialFailure is the satellite regression: one malformed
// document in a batch yields a per-doc error while the rest commit.
func TestIngestBatchPartialFailure(t *testing.T) {
	svc := fitService(t)
	a, _ := twoRegimes(13, 20)

	// Doc 5: wrong feature width. Doc 11: truncated payload (fails
	// Validate). Doc 17: nil.
	bad := map[int]string{5: "elements", 11: "payload", 17: "nil sample"}
	a[5] = codec.SampleFromFloats([]float64{1, 2, 3}, []int{3}, codec.F64, nil)
	a[11] = &codec.Sample{Shape: a[11].Shape, Dtype: a[11].Dtype, Data: a[11].Data[:4], Label: a[11].Label}
	a[17] = nil

	// The all-or-nothing form refuses a bad document, the lowest-index one
	// when there are several, and stores nothing.
	for _, c := range []struct {
		docs []*codec.Sample
		at   string
		want string
	}{
		{[]*codec.Sample{a[0], a[11]}, "sample 1: ", bad[11]},
		{[]*codec.Sample{a[0], a[17]}, "sample 1: ", bad[17]},
		{a, "sample 5: ", bad[5]},
	} {
		_, err := svc.IngestLabeled(c.docs, "partial")
		if err == nil || !strings.Contains(err.Error(), c.at) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("IngestLabeled: err = %v, want one mentioning %q and %q", err, c.at, c.want)
		}
		if n := svc.StoreCount(); n != 0 {
			t.Fatalf("a refused IngestLabeled stored %d docs", n)
		}
	}

	res, err := svc.IngestLabeledBatchContext(context.Background(), a, "partial", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != len(bad) {
		t.Fatalf("got %d per-doc errors (%v), want %d", len(res.Errors), res.Errors, len(bad))
	}
	for _, de := range res.Errors {
		want, ok := bad[de.Index]
		if !ok {
			t.Fatalf("unexpected error for doc %d: %v", de.Index, de.Err)
		}
		if !strings.Contains(de.Err.Error(), want) {
			t.Errorf("doc %d error %q does not mention %q", de.Index, de.Err, want)
		}
		if res.IDs[de.Index] != "" {
			t.Errorf("failed doc %d has ID %q", de.Index, res.IDs[de.Index])
		}
	}
	if got, want := res.Inserted(), len(a)-len(bad); got != want {
		t.Fatalf("inserted %d, want %d", got, want)
	}
	if svc.StoreCount() != len(a)-len(bad) {
		t.Fatalf("store holds %d docs, want %d", svc.StoreCount(), len(a)-len(bad))
	}
	// Errors must be sorted by input index.
	for i := 1; i < len(res.Errors); i++ {
		if res.Errors[i-1].Index >= res.Errors[i].Index {
			t.Fatalf("errors not ascending: %v", res.Errors)
		}
	}
}

// TestIngestBatchNilFirstSample: a nil leading document must not poison
// the batch's reference width (regression: refWidth came from samples[0]
// unconditionally and dereferenced nil).
func TestIngestBatchNilFirstSample(t *testing.T) {
	svc := fitService(t)
	a, _ := twoRegimes(16, 6)
	a[0] = nil
	res, err := svc.IngestLabeledBatchContext(context.Background(), a, "x", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted() != 5 || len(res.Errors) != 1 || res.Errors[0].Index != 0 {
		t.Fatalf("nil-first batch: %+v, want 5 inserted and one error at index 0", res)
	}

	// An all-nil batch reports every document and commits nothing.
	res, err = svc.IngestLabeledBatchContext(context.Background(), make([]*codec.Sample, 4), "x", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted() != 0 || len(res.Errors) != 4 {
		t.Fatalf("all-nil batch: %+v, want 0 inserted and 4 errors", res)
	}
}

// TestIngestBatchRequiresClusters: the whole-call failure mode.
func TestIngestBatchRequiresClusters(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(14, 4)
	if _, err := svc.IngestLabeledBatchContext(context.Background(), a, "x", BatchOptions{}); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	fitted := fitService(t)
	res, err := fitted.IngestLabeledBatchContext(context.Background(), nil, "x", BatchOptions{})
	if err != nil || len(res.IDs) != 0 || len(res.Errors) != 0 {
		t.Fatalf("empty batch: res=%+v err=%v, want empty result", res, err)
	}
}

// TestIngestBatchStoreFailureStoresNothing: a store failure fails every
// surviving document and stores nothing — the call is one commit.
func TestIngestBatchStoreFailureStoresNothing(t *testing.T) {
	svc := fitService(t)
	a, _ := twoRegimes(15, 12)
	a[3] = nil
	// An unindexable field value (slice) in the indexed "cluster" field
	// cannot be simulated from outside, so wrap the store instead.
	inner := svc.store
	svc.store = failingInsert{inner}
	res, err := svc.IngestLabeledBatchContext(context.Background(), a, "x", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Inserted(); got != 0 {
		t.Fatalf("inserted %d, want 0", got)
	}
	if len(res.Errors) != len(a) {
		t.Fatalf("got %d per-doc errors, want %d: %v", len(res.Errors), len(a), res.Errors)
	}
	for i, de := range res.Errors {
		want := "storing samples"
		if i == 3 {
			want = "nil sample"
		}
		if de.Index != i || !strings.Contains(de.Err.Error(), want) {
			t.Errorf("error %d: doc %d %q, want doc %d mentioning %q", i, de.Index, de.Err, i, want)
		}
	}
	if n := inner.Count(); n != 0 {
		t.Fatalf("store holds %d docs after a failed commit, want 0", n)
	}
}

// failingInsert wraps a DataStore and fails every InsertMany call.
type failingInsert struct{ DataStore }

func (failingInsert) InsertMany([]docstore.Fields) ([]string, error) { return nil, errInjected }

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected store failure" }

// TestIngestCommitsOneTransaction: on a WAL-durable store, an ingest call
// of either form lands as exactly one commit record, whatever its size —
// the unit of atomicity and durability for ingest.
func TestIngestCommitsOneTransaction(t *testing.T) {
	ds, err := docstore.OpenDurable(docstore.DurableOptions{Dir: t.TempDir(), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	svc, err := New(idEmbedder{dim: 6}, ds.Collection("peaks"), Config{Seed: 1, KMin: 2, KMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := twoRegimes(11, 40)
	x, err := Collate(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}

	before := ds.WalStats().Appends
	docs, _ := twoRegimes(13, 30)
	res, err := svc.IngestLabeledBatchContext(context.Background(), docs, "run-a", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Inserted(); got != len(docs) {
		t.Fatalf("inserted %d, want %d", got, len(docs))
	}
	if got := ds.WalStats().Appends - before; got != 1 {
		t.Fatalf("batch ingest appended %d WAL records; want 1", got)
	}
	before = ds.WalStats().Appends
	if _, err := svc.IngestLabeled(docs, "run-b"); err != nil {
		t.Fatal(err)
	}
	if got := ds.WalStats().Appends - before; got != 1 {
		t.Fatalf("ingest appended %d WAL records; want 1", got)
	}
}
