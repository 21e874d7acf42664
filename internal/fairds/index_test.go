package fairds

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/vecindex"
)

// unreachableCountStore models a remote store whose count RPC fails: the
// plain Count necessarily swallows the error and reports 0.
type unreachableCountStore struct{ DataStore }

func (unreachableCountStore) Count() int                 { return 0 }
func (unreachableCountStore) CountChecked() (int, error) { return 0, errors.New("store unreachable") }

// TestUnreachableStoreStartsCold pins the New readiness decision: a store
// whose emptiness cannot be verified must leave the index cold (store-scan
// fallback), not "ready" over an empty index that would answer no-neighbor
// for every existing document.
func TestUnreachableStoreStartsCold(t *testing.T) {
	backing := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, unreachableCountStore{backing}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if svc.IndexStats().Ready {
		t.Fatal("index claims readiness over a store it could not count")
	}
	// The same store reporting a verified empty count starts ready.
	svc2, err := New(idEmbedder{dim: 6}, backing, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !svc2.IndexStats().Ready {
		t.Fatal("verifiably empty store should start ready")
	}
}

// indexedAndScanPair builds two services over the same physical store and
// identical clustering: one answering nearest-label queries from the
// vector index, and one opened over the filled store and never warmed,
// which scans the store as a restarted daemon does before WarmIndex. The
// pair is the parity fixture — on identical data the two must agree
// exactly.
func indexedAndScanPair(t *testing.T, idx vecindex.Index, n int) (indexed, scan *Service, query []*codec.Sample) {
	t.Helper()
	store := docstore.NewStore().Collection("peaks")
	indexed, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(3, n/2)
	hist := append(append([]*codec.Sample{}, a...), b...)
	x, err := Collate(hist)
	if err != nil {
		t.Fatal(err)
	}
	if err := indexed.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := indexed.IngestLabeled(hist, "hist"); err != nil {
		t.Fatal(err)
	}
	if !indexed.IndexStats().Ready {
		t.Fatal("index not ready after ingest into a store born empty")
	}

	scan, err = New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if scan.IndexStats().Ready {
		t.Fatal("a service opened over a filled store claims index coverage before WarmIndex")
	}
	// Same rows, same K, same seed — the deterministic fit yields identical
	// centroids, so both services predict identical query clusters.
	if err := scan.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	qa, qb := twoRegimes(17, 8)
	query = append(append([]*codec.Sample{}, qa...), qb...)
	rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
	return indexed, scan, query
}

// TestIndexParityNearestMatches is the acceptance parity check: on the
// same corpus, the indexed path and the store-scan path return identical
// nearest IDs and distances, with and without distinct draws.
func TestIndexParityNearestMatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  vecindex.Index
	}{
		{"flat", vecindex.NewFlat()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			indexed, scan, query := indexedAndScanPair(t, tc.idx, 120)
			for _, distinct := range []bool{false, true} {
				got, err := indexed.NearestMatches(query, distinct)
				if err != nil {
					t.Fatal(err)
				}
				want, err := scan.NearestMatches(query, distinct)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("distinct=%v sample %d: indexed %+v != scan %+v", distinct, i, got[i], want[i])
					}
				}
			}
			st := indexed.IndexStats()
			if st.Hits == 0 || st.Misses != 0 {
				t.Fatalf("indexed service should have answered from the index: %+v", st)
			}
		})
	}
}

// TestIndexParityExcludingDraws runs the Fig. 9 distinct-draw loop — one
// sample, its earlier draws excluded — through NearestMatchesExcluding on
// both paths and requires identical draws.
func TestIndexParityExcludingDraws(t *testing.T) {
	indexed, scan, query := indexedAndScanPair(t, vecindex.NewFlat(), 60)
	exclI := map[string]bool{}
	exclS := map[string]bool{}
	for draw := 0; draw < 20; draw++ {
		mI, err := indexed.NearestMatchesExcluding(context.Background(), query[:1], false, exclI)
		if err != nil {
			t.Fatal(err)
		}
		mS, err := scan.NearestMatchesExcluding(context.Background(), query[:1], false, exclS)
		if err != nil {
			t.Fatal(err)
		}
		idI, distI, idS, distS := mI[0].DocID, mI[0].Dist, mS[0].DocID, mS[0].Dist
		if idI != idS || distI != distS {
			t.Fatalf("draw %d: indexed (%s, %g) != scan (%s, %g)", draw, idI, distI, idS, distS)
		}
		if idI == "" {
			break
		}
		exclI[idI] = true
		exclS[idS] = true
	}
}

// TestWarmIndexAdoptsPrePopulatedStore models a daemon restart: a new
// service over an already-filled store starts cold (scans), and WarmIndex
// flips it to in-memory probes with the same answers.
func TestWarmIndexAdoptsPrePopulatedStore(t *testing.T) {
	indexed, _, query := indexedAndScanPair(t, vecindex.NewFlat(), 80)
	store := indexed.store

	adopted, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adopted.IndexStats().Ready {
		t.Fatal("index claims to cover a store it has never read")
	}
	a, b := twoRegimes(3, 40)
	x, err := Collate(append(append([]*codec.Sample{}, a...), b...))
	if err != nil {
		t.Fatal(err)
	}
	if err := adopted.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}

	cold, err := adopted.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := adopted.IndexStats(); st.Misses == 0 || st.Hits != 0 {
		t.Fatalf("cold service should have scanned the store: %+v", st)
	}

	n, err := adopted.WarmIndex()
	if err != nil {
		t.Fatal(err)
	}
	if n != store.Count() {
		t.Fatalf("warmed %d vectors, store holds %d", n, store.Count())
	}
	st := adopted.IndexStats()
	if !st.Ready || st.Size != n {
		t.Fatalf("after warm: %+v", st)
	}

	warm, err := adopted.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("sample %d: warm %+v != cold %+v", i, warm[i], cold[i])
		}
	}
	if st := adopted.IndexStats(); st.Hits == 0 {
		t.Fatalf("warm service should have hit the index: %+v", st)
	}
}

// TestCorruptEmbeddingsCounted plants documents with missing, mistyped,
// and wrong-dimension embedding fields. The store-scan fallback and
// WarmIndex must count them as corrupt (not silently skip), and lookups
// must still return the best healthy document.
func TestCorruptEmbeddingsCounted(t *testing.T) {
	store := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(3, 30)
	hist := append(append([]*codec.Sample{}, a...), b...)
	x, err := Collate(hist)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(x, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(hist, "hist"); err != nil {
		t.Fatal(err)
	}
	// An embedder swap cools the index, so lookups scan the store.
	if err := svc.SetEmbedder(idEmbedder{dim: 6}); err != nil {
		t.Fatal(err)
	}

	// One corrupt document per cluster so every query cluster sees them:
	// a wrong-dimension embedding and a missing one.
	for k := 0; k < svc.K(); k++ {
		if _, err := store.InsertMany([]docstore.Fields{
			{"cluster": k, "embedding": []float64{1, 2}, "payload": []byte{0}},
			{"cluster": k, "payload": []byte{0}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	m, err := svc.NearestMatchesExcluding(context.Background(), a[:1], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].DocID == "" || math.IsInf(m[0].Dist, 1) {
		t.Fatal("corrupt documents masked the healthy nearest neighbor")
	}
	if got := svc.CorruptEmbeddings(); got != 2 {
		t.Fatalf("CorruptEmbeddings = %d after one-cluster scan, want 2", got)
	}
	if _, err := svc.NearestMatches(a[:4], false); err != nil {
		t.Fatal(err)
	}
	// NearestMatches scanned at least one cluster again; the exact count
	// depends on cluster spread, so just require growth past the first scan.
	if got := svc.CorruptEmbeddings(); got <= 2 {
		t.Fatalf("CorruptEmbeddings = %d after NearestMatches, want > 2", got)
	}

	// WarmIndex on a fresh indexed service over the same store skips and
	// counts every planted document.
	adopted, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := adopted.WarmIndex()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(hist) {
		t.Fatalf("warmed %d, want the %d healthy documents", n, len(hist))
	}
	if got, want := adopted.CorruptEmbeddings(), int64(2*svc.K()); got != want {
		t.Fatalf("CorruptEmbeddings after warm = %d, want %d", got, want)
	}
}

// TestReindexRebuildsIndexAfterEmbedderSwap checks the §II-C maintenance
// path: SetEmbedder cools the index, Reindex rebuilds it against the new
// embedding space and the indexed answers again match a store scan.
func TestReindexRebuildsIndexAfterEmbedderSwap(t *testing.T) {
	indexed, _, query := indexedAndScanPair(t, vecindex.NewFlat(), 60)
	if err := indexed.SetEmbedder(idEmbedder{dim: 4}); err != nil {
		t.Fatal(err)
	}
	if indexed.IndexStats().Ready {
		t.Fatal("index still claims coverage after an embedder swap")
	}
	if _, err := indexed.Reindex(3); err != nil {
		t.Fatal(err)
	}
	st := indexed.IndexStats()
	if !st.Ready || st.Size != indexed.StoreCount() {
		t.Fatalf("after reindex: %+v", st)
	}

	scan, err := New(idEmbedder{dim: 4}, indexed.store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	scan.km = indexed.km // same refitted clustering
	got, err := indexed.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d after reindex: indexed %+v != scan %+v", i, got[i], want[i])
		}
	}
}
