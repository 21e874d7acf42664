package fairds

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
)

// fetchService is a fitted service over 320 stored 11×11 Bragg patches,
// five times fetchForkDocs, with its collection and every stored ID in
// reverse ID order, so a fetch's request order is not the store's.
func fetchService(t *testing.T) (*Service, *docstore.Collection, []string) {
	t.Helper()
	coll := docstore.NewStore().Collection("hist")
	svc, err := New(idEmbedder{dim: 4}, coll, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(8, 160)
	all := append(a, b...)
	if err := svc.FitClustersK(mustCollate(t, all), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "historical"); err != nil {
		t.Fatal(err)
	}
	ids, err := coll.FindIDs(docstore.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) <= 4*fetchForkDocs {
		t.Fatalf("%d stored documents: the fetch would not fork", len(ids))
	}
	slices.Reverse(ids)
	return svc, coll, ids
}

// oneAtATime decodes the stored payload of each ID by itself, in order.
func oneAtATime(t *testing.T, coll *docstore.Collection, ids []string) []*codec.Sample {
	t.Helper()
	out := make([]*codec.Sample, len(ids))
	for i, id := range ids {
		d, err := coll.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = (codec.Block{}).Decode(d.F["payload"].([]byte)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func requireSameSamples(t *testing.T, got, want []*codec.Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Dtype != w.Dtype || !slices.Equal(g.Shape, w.Shape) || !bytes.Equal(g.Data, w.Data) || !slices.Equal(g.Label, w.Label) {
			t.Fatalf("sample %d differs from its one-at-a-time decode", i)
		}
	}
}

// TestParallelFetchMatchesOneAtATime: a fetch of more than fetchForkDocs
// documents decodes across goroutines and still returns, in request order,
// the bytes a one-at-a-time decode gives, whole or partial. CI runs this
// package at -cpu 1,4, so both a single worker and a four-way split run.
func TestParallelFetchMatchesOneAtATime(t *testing.T) {
	svc, coll, ids := fetchService(t)
	want := oneAtATime(t, coll, ids)
	got, err := svc.GetSamples(ids)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSamples(t, got, want)
	got, missing, err := svc.SamplesByIDContext(context.Background(), ids, true)
	if err != nil || missing != nil {
		t.Fatalf("partial fetch of stored IDs: missing %v, err %v", missing, err)
	}
	requireSameSamples(t, got, want)
}

// TestParallelFetchCorruptPayload: a payload that does not decode fails a
// whole fetch however the decode is split, the first such document in
// request order naming the error, and on the partial path it is listed in
// missing while every other sample comes back in order.
func TestParallelFetchCorruptPayload(t *testing.T) {
	svc, coll, ids := fetchService(t)
	bad := []string{ids[40], ids[len(ids)-7]} // in the first and last blocks of any split
	for _, id := range bad {
		if err := coll.Update(id, docstore.Fields{"payload": []byte{0xFA, 3}}); err != nil { // a header cut short
			t.Fatal(err)
		}
	}
	if _, err := svc.GetSamples(ids); err == nil || !strings.Contains(err.Error(), bad[0]) {
		t.Fatalf("GetSamples over corrupt payloads: err %v, want one naming %s", err, bad[0])
	}
	good := slices.DeleteFunc(slices.Clone(ids), func(id string) bool { return slices.Contains(bad, id) })
	got, missing, err := svc.SamplesByIDContext(context.Background(), ids, true)
	if err != nil || !slices.Equal(missing, bad) {
		t.Fatalf("partial fetch: missing %v, err %v; want missing %v", missing, err, bad)
	}
	requireSameSamples(t, got, oneAtATime(t, coll, good))
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts mean nothing.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestLookup512Allocations pins the garbage of update_cycle's 512-sample
// lookup (BenchmarkLookupLabeled512's), a count that does not move with
// the host: 2,165 allocations, where the byte-at-a-time decode into a
// copied shuffle buffer and GetMany's field-map clones made 7,275 — four a
// document for its decoded sample (the struct, shape, label and payload)
// and the draw's own. The fixture is built and measured at GOMAXPROCS 1,
// one store stripe and no fork, where the count repeats exactly from the
// third lookup on; the ceiling adds about 1 % for a Go release's runtime.
func TestLookup512Allocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, qx := lookup512Fixture(t)
	for range 2 {
		if _, err := svc.LookupLabeled(qx); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := svc.LookupLabeled(qx); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 2165 + 35
	if allocs > ceiling {
		t.Fatalf("a 512-sample lookup makes %.0f allocations, want at most %d", allocs, ceiling)
	}
}
