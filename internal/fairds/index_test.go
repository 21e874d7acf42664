package fairds

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/vecindex"
)

// unreadableStore models a store whose queries fail; as a bare wrapper it
// names no fit collection, so New reaches the index load.
type unreadableStore struct{ DataStore }

func (unreadableStore) Find(docstore.Query) ([]*docstore.Doc, error) {
	return nil, errors.New("store unreachable")
}

// TestNewFailsOnUnreadableStore pins that the index is built when the
// service opens: a store New cannot read fails it, instead of leaving a
// service whose empty index would answer no-neighbor for every stored
// document.
func TestNewFailsOnUnreadableStore(t *testing.T) {
	backing := docstore.NewStore().Collection("peaks")
	if _, err := New(idEmbedder{dim: 6}, unreadableStore{backing}, Config{Seed: 1}); err == nil {
		t.Fatal("New succeeded over a store it could not read")
	}
	if _, err := New(idEmbedder{dim: 6}, backing, Config{Seed: 1}); err != nil {
		t.Fatalf("the same store, readable: %v", err)
	}
}

// bruteNearest is the reference the index is held to: per-cluster Find of
// the stored embeddings, then the first strictly nearest by vecindex.Dist2
// among those not in exclude — growing exclude with each match when
// distinct. exclude is mutated.
func bruteNearest(t *testing.T, svc *Service, samples []*codec.Sample, distinct bool, exclude map[string]bool) []Match {
	t.Helper()
	x := mustCollate(t, samples)
	rows := embed.EmbedRows(svc.embedder, x)
	assign := svc.km.Predict(rows)
	out := make([]Match, len(samples))
	for i, k := range assign {
		docs, err := svc.store.Find(docstore.Query{
			Filters: []docstore.Filter{docstore.Eq("cluster", k)},
			Project: []string{"embedding"},
		})
		if err != nil {
			t.Fatal(err)
		}
		best, bestID := math.Inf(1), ""
		for _, d := range docs {
			emb, ok := d.F["embedding"].([]float64)
			if !ok || len(emb) != len(rows[i]) || exclude[d.ID] {
				continue
			}
			if d2 := vecindex.Dist2(rows[i], emb); d2 < best {
				best, bestID = d2, d.ID
			}
		}
		if bestID != "" && distinct {
			exclude[bestID] = true
		}
		out[i] = Match{DocID: bestID, Dist: math.Sqrt(best)}
	}
	return out
}

// parityFixture builds a service over a store it fills itself — a fit on
// n historical samples, then their ingest — and a shuffled query of both
// regimes.
func parityFixture(t *testing.T, idx vecindex.Index, n int) (svc *Service, query []*codec.Sample) {
	t.Helper()
	svc, err := New(idEmbedder{dim: 6}, docstore.NewStore().Collection("peaks"), Config{Seed: 1, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(3, n/2)
	hist := append(append([]*codec.Sample{}, a...), b...)
	if err := svc.FitClustersK(mustCollate(t, hist), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(hist, "hist"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	qa, qb := twoRegimes(17, 8)
	query = append(append([]*codec.Sample{}, qa...), qb...)
	rng.Shuffle(len(query), func(i, j int) { query[i], query[j] = query[j], query[i] })
	return svc, query
}

func requireSameMatches(t *testing.T, what string, got, want []Match) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s sample %d: index %+v != reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestIndexParityNearestMatches is the acceptance parity check: the
// index's nearest IDs and distances are the brute-force reference's, with
// and without distinct draws, and every queried sample is one probe.
func TestIndexParityNearestMatches(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  vecindex.Index
	}{
		{"flat", vecindex.NewFlat()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, query := parityFixture(t, tc.idx, 120)
			for _, distinct := range []bool{false, true} {
				got, err := svc.NearestMatches(query, distinct)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteNearest(t, svc, query, distinct, map[string]bool{})
				requireSameMatches(t, fmt.Sprintf("distinct=%v", distinct), got, want)
			}
			if st := svc.IndexStats(); st.Hits != int64(2*len(query)) || st.Probed == 0 {
				t.Fatalf("two %d-sample queries left %+v", len(query), st)
			}
		})
	}
}

// TestIndexParityExcludingDraws runs the Fig. 9 distinct-draw loop — one
// sample, its earlier draws excluded — through NearestMatchesExcluding and
// requires the reference's draws until the cluster runs dry.
func TestIndexParityExcludingDraws(t *testing.T) {
	svc, query := parityFixture(t, vecindex.NewFlat(), 60)
	excl := map[string]bool{}
	for draw := 0; draw <= 60; draw++ {
		got, err := svc.NearestMatchesExcluding(context.Background(), query[:1], false, excl)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteNearest(t, svc, query[:1], false, excl)
		requireSameMatches(t, "draw", got, want)
		if got[0].DocID == "" {
			return
		}
		excl[got[0].DocID] = true
	}
	t.Fatal("61 draws from a 60-document store never ran dry")
}

// TestReopenedServiceAnswersAsIngester models a daemon restart: a new
// service over the filled store indexes all of it when it opens and
// answers exactly as the service that ingested it.
func TestReopenedServiceAnswersAsIngester(t *testing.T) {
	ingester, query := parityFixture(t, vecindex.NewFlat(), 80)
	store := ingester.store

	reopened, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := reopened.IndexStats(); st.Size != store.Count() || st.Corrupt != 0 {
		t.Fatalf("reopened over %d documents: %+v", store.Count(), st)
	}
	for _, distinct := range []bool{false, true} {
		want, err := ingester.NearestMatches(query, distinct)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.NearestMatches(query, distinct)
		if err != nil {
			t.Fatal(err)
		}
		requireSameMatches(t, fmt.Sprintf("reopened, distinct=%v", distinct), got, want)
	}
}

// TestCorruptEmbeddingsCounted plants documents with wrong-dimension and
// missing embedding fields. Opening a service over the store must count
// each once and leave it out of the index; lookups still return the best
// healthy document, and do not count the planted ones again.
func TestCorruptEmbeddingsCounted(t *testing.T) {
	store := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(3, 30)
	hist := append(append([]*codec.Sample{}, a...), b...)
	if err := svc.FitClustersK(mustCollate(t, hist), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(hist, "hist"); err != nil {
		t.Fatal(err)
	}
	// One corrupt document of each kind per cluster, so every query
	// cluster holds them.
	for k := 0; k < svc.K(); k++ {
		if _, err := store.InsertMany([]docstore.Fields{
			{"cluster": k, "embedding": []float64{1, 2}, "payload": []byte{0}},
			{"cluster": k, "payload": []byte{0}},
		}); err != nil {
			t.Fatal(err)
		}
	}

	reopened, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(2 * svc.K())
	if st := reopened.IndexStats(); st.Corrupt != want || st.Size != len(hist) {
		t.Fatalf("opened with %+v, want %d corrupt and the %d healthy documents indexed", st, want, len(hist))
	}
	m, err := reopened.NearestMatchesExcluding(context.Background(), a[:1], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0].DocID == "" || math.IsInf(m[0].Dist, 1) {
		t.Fatal("corrupt documents masked the healthy nearest neighbor")
	}
	if _, err := reopened.NearestMatches(a[:4], false); err != nil {
		t.Fatal(err)
	}
	if got := reopened.IndexStats().Corrupt; got != want {
		t.Fatalf("Corrupt = %d after queries, want it to stay %d", got, want)
	}
}

// TestReindexRebuildsIndexAfterEmbedderSwap checks the §II-C maintenance
// path: Reindex installs the new embedder with an index rebuilt in its
// space, and the indexed answers match the reference over the rewritten
// store.
func TestReindexRebuildsIndexAfterEmbedderSwap(t *testing.T) {
	svc, query := parityFixture(t, vecindex.NewFlat(), 60)
	if _, err := svc.Reindex(idEmbedder{dim: 4}, 3); err != nil {
		t.Fatal(err)
	}
	if st := svc.IndexStats(); st.Size != svc.StoreCount() || svc.Embedder().Dim() != 4 {
		t.Fatalf("after reindex: %+v, embedder dim %d", st, svc.Embedder().Dim())
	}
	got, err := svc.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMatches(t, "after reindex", got, bruteNearest(t, svc, query, false, map[string]bool{}))
}
