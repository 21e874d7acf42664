package fairds

import (
	"context"
	"slices"
	"sync"
	"testing"

	"fairdms/internal/docstore"
)

// callCounter counts the store calls the lookup path makes, by batch size
// for GetMany.
type callCounter struct {
	DataStore
	mu      sync.Mutex
	samples int
	getMany []int
}

func (c *callCounter) SampleIDs(q docstore.Query, n int, seed int64) ([]string, error) {
	c.mu.Lock()
	c.samples++
	c.mu.Unlock()
	return c.DataStore.SampleIDs(q, n, seed)
}

func (c *callCounter) GetMany(ids []string) ([]*docstore.Doc, error) {
	c.mu.Lock()
	c.getMany = append(c.getMany, len(ids))
	c.mu.Unlock()
	return c.DataStore.GetMany(ids)
}

func countedService(t *testing.T) (*Service, *callCounter, *docstore.Collection) {
	t.Helper()
	coll := docstore.NewStore().Collection("hist")
	store := &callCounter{DataStore: coll}
	svc, err := New(idEmbedder{dim: 4}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(5, 50)
	all := append(a, b...)
	if err := svc.FitClustersK(mustCollate(t, all), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "historical"); err != nil {
		t.Fatal(err)
	}
	return svc, store, coll
}

// TestLookupIsDrawThenOneFetch: one SampleIDs per occupied cluster, then
// one GetMany over everything drawn — K+1 store round trips, and the
// samples come back in the draw's order (cluster, then ID).
func TestLookupIsDrawThenOneFetch(t *testing.T) {
	svc, store, _ := countedService(t)
	a, b := twoRegimes(6, 12)
	x := mustCollate(t, append(a, b...))

	counts, drawn, err := svc.LookupDrawContext(context.Background(), x, 1)
	if err != nil {
		t.Fatal(err)
	}
	occupied, total := 0, 0
	var ids []string
	for k, n := range counts {
		total += n
		if n > 0 {
			occupied++
		}
		if len(drawn[k]) > n || !slices.IsSorted(drawn[k]) {
			t.Fatalf("cluster %d: drew %v for a count of %d", k, drawn[k], n)
		}
		ids = append(ids, drawn[k]...)
	}
	if total != 24 || occupied < 2 {
		t.Fatalf("counts %v: want 24 over at least two clusters", counts)
	}
	if store.samples != occupied || len(store.getMany) != 0 {
		t.Fatalf("draw made %d SampleIDs and %d GetMany calls; want %d and 0", store.samples, len(store.getMany), occupied)
	}

	got, err := svc.LookupLabeledContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	if store.samples != 2*occupied || !slices.Equal(store.getMany, []int{len(ids)}) {
		t.Fatalf("lookup made %d SampleIDs and GetMany batches %v; want %d and one batch of %d",
			store.samples-occupied, store.getMany, occupied, len(ids))
	}
	want, err := svc.GetSamples(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("lookup returned %d samples, the draw names %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("sample %d is not document %s", i, ids[i])
		}
	}
}

// TestPartialFetchIsOneBatchUntilAMiss: the tolerant fetch costs one store
// call when every ID resolves and falls back to per-ID resolution only on
// a miss, with order and Missing unchanged.
func TestPartialFetchIsOneBatchUntilAMiss(t *testing.T) {
	svc, store, coll := countedService(t)
	all, err := coll.FindIDs(docstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	ids := all[:10]
	ctx := context.Background()

	got, missing, err := svc.SamplesByIDContext(ctx, ids, true)
	if err != nil || len(got) != 10 || len(missing) != 0 {
		t.Fatalf("all present: %d samples, missing %v, err %v", len(got), missing, err)
	}
	if !slices.Equal(store.getMany, []int{10}) {
		t.Fatalf("all present: GetMany batches %v, want one of 10", store.getMany)
	}

	if _, err := coll.ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnDelete, ID: ids[3]}}); err != nil {
		t.Fatal(err)
	}
	asked := slices.Concat(ids[:6], []string{"no-such-doc"}, ids[6:])
	want, err := svc.GetSamples(slices.Concat(ids[:3], ids[4:]))
	if err != nil {
		t.Fatal(err)
	}
	store.getMany = nil
	got, missing, err = svc.SamplesByIDContext(ctx, asked, true)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(missing, []string{ids[3], "no-such-doc"}) {
		t.Fatalf("missing = %v", missing)
	}
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("sample %d out of request order", i)
		}
	}
	if len(store.getMany) != 1+len(asked) {
		t.Fatalf("with misses: %d GetMany calls, want the batch plus %d", len(store.getMany), len(asked))
	}

	if _, _, err := svc.SamplesByIDContext(ctx, asked, false); err == nil {
		t.Fatal("strict fetch of a missing ID must fail")
	}
}
