package fairds

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/tensor"
)

// idEmbedder embeds images by simple pooled statistics — deterministic and
// training-free, which keeps service tests focused on the service logic.
type idEmbedder struct{ dim int }

func (e idEmbedder) Dim() int { return e.dim }
func (e idEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), e.dim)
	feats := x.Dim(1)
	chunk := (feats + e.dim - 1) / e.dim
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		for d := 0; d < e.dim; d++ {
			lo := d * chunk
			hi := lo + chunk
			if hi > feats {
				hi = feats
			}
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

// twoRegimes returns labeled samples from two visually distinct regimes.
func twoRegimes(seed int64, n int) (a, b []*codec.Sample) {
	rng := rand.New(rand.NewSource(seed))
	ra := datagen.DefaultBraggRegime()
	ra.Patch = 11
	rb := ra
	rb.WidthMean = 4.0
	rb.AmpMean = 25
	return ra.Generate(rng, n), rb.Generate(rng, n)
}

func newService(t *testing.T) *Service {
	t.Helper()
	store := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, store, Config{Seed: 1, KMin: 2, KMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewValidations(t *testing.T) {
	store := docstore.NewStore().Collection("x")
	if _, err := New(nil, store, Config{}); err == nil {
		t.Fatal("expected error for nil embedder")
	}
	if _, err := New(idEmbedder{dim: 2}, nil, Config{}); err == nil {
		t.Fatal("expected error for nil store")
	}
}

func TestLookupsRequireClusters(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(2, 4)
	x, _ := Collate(a)
	if _, err := svc.DatasetPDF(x); err == nil {
		t.Fatal("expected error before FitClusters")
	}
	if _, err := svc.LookupLabeled(x); err == nil {
		t.Fatal("expected error before FitClusters")
	}
	if _, err := svc.IngestLabeled(a, "d0"); err == nil {
		t.Fatal("expected error before FitClusters")
	}
	if _, err := svc.Certainty(x, 0.5); err == nil {
		t.Fatal("expected error before FitClusters")
	}
}

func TestFitClustersAndPDF(t *testing.T) {
	svc := newService(t)
	a, b := twoRegimes(3, 40)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x, err := Collate(all)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClusters(x); err != nil {
		t.Fatal(err)
	}
	if svc.K() < 2 {
		t.Fatalf("K = %d", svc.K())
	}
	if len(svc.WSSCurve()) == 0 {
		t.Fatal("WSS curve missing")
	}

	// PDFs of the two regimes must differ.
	xa, _ := Collate(a)
	xb, _ := Collate(b)
	pa, err := svc.DatasetPDF(xa)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := svc.DatasetPDF(xb)
	if err != nil {
		t.Fatal(err)
	}
	if err := pa.Validate(); err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range pa {
		diff += math.Abs(pa[i] - pb[i])
	}
	if diff < 0.5 {
		t.Fatalf("regime PDFs too similar: L1 = %g", diff)
	}
}

func TestFitClustersKFixed(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(4, 30)
	x, _ := Collate(a)
	if err := svc.FitClustersK(x, 5); err != nil {
		t.Fatal(err)
	}
	if svc.K() != 5 {
		t.Fatalf("K = %d, want 5", svc.K())
	}
}

func TestIngestAndLookupLabeled(t *testing.T) {
	svc := newService(t)
	a, b := twoRegimes(5, 50)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x, _ := Collate(all)
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "historical"); err != nil {
		t.Fatal(err)
	}
	if svc.StoreCount() != 100 {
		t.Fatalf("store holds %d docs", svc.StoreCount())
	}

	// Query with new regime-A data: retrieved labels must match the input
	// count and be drawn (mostly) from regime A's clusters.
	queryA, _ := twoRegimes(6, 20)
	qx, _ := Collate(queryA)
	got, err := svc.LookupLabeled(qx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("retrieved %d labeled samples, want 20", len(got))
	}
	for _, smp := range got {
		if len(smp.Label) != 2 {
			t.Fatal("retrieved sample lost its label")
		}
	}
	// Retrieved samples should look like regime A (small widths → high
	// peak amplitude relative to mean). Compare mean max-pixel between
	// retrieved set and regime-B samples.
	meanMax := func(ss []*codec.Sample) float64 {
		s := 0.0
		for _, smp := range ss {
			m, _ := tensor.FromSlice(smp.Floats(), smp.Elems()).Max()
			s += m
		}
		return s / float64(len(ss))
	}
	if math.Abs(meanMax(got)-meanMax(a)) > math.Abs(meanMax(got)-meanMax(b)) {
		t.Fatal("retrieved samples resemble the wrong regime")
	}
}

func TestLookupLabeledEmptyStoreFails(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(7, 20)
	x, _ := Collate(a)
	if err := svc.FitClustersK(x, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.LookupLabeled(x); err == nil {
		t.Fatal("expected error with empty store")
	}
}

func TestNearestLabeledFindsSimilar(t *testing.T) {
	svc := newService(t)
	a, b := twoRegimes(8, 40)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x, _ := Collate(all)
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "hist"); err != nil {
		t.Fatal(err)
	}

	probeA, probeB := twoRegimes(9, 1)
	mA, err := svc.NearestMatchesExcluding(context.Background(), probeA, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	distA := mA[0].Dist
	if mA[0].DocID == "" || math.IsInf(distA, 1) {
		t.Fatal("no neighbor found for regime-A probe")
	}
	if nn, err := svc.GetSamples([]string{mA[0].DocID}); err != nil || nn[0] == nil {
		t.Fatalf("fetching the regime-A neighbor: %v", err)
	}
	// The neighbor of an A-probe should be much closer than the distance
	// from an A-probe to a B-probe embedding.
	mB, err := svc.NearestMatchesExcluding(context.Background(), probeB, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if distB := mB[0].Dist; distA < 0 || distB < 0 {
		t.Fatal("negative distances")
	}
}

func TestCertaintyDropsOnNovelRegime(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(10, 60)
	xa, _ := Collate(a)
	if err := svc.FitClustersK(xa, 4); err != nil {
		t.Fatal(err)
	}
	certA, err := svc.Certainty(xa, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// A drastically different regime should cluster with lower certainty.
	novel := datagen.DefaultBraggRegime()
	novel.Patch = 11
	novel.WidthMean = 5.5
	novel.AmpMean = 60
	novel.Noise = 2
	rng := rand.New(rand.NewSource(11))
	xn, _ := Collate(novel.Generate(rng, 60))
	certN, err := svc.Certainty(xn, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if certN >= certA {
		t.Fatalf("novel-regime certainty %.3f not below familiar %.3f", certN, certA)
	}
}

func TestRemoteCollectionBackend(t *testing.T) {
	srv := docstore.NewServer(docstore.NewStore(), docstore.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := docstore.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	svc, err := New(idEmbedder{dim: 6}, RemoteCollection{Client: cl, Name: "peaks"}, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(12, 30)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x, _ := Collate(all)
	if err := svc.FitClustersK(x, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "remote"); err != nil {
		t.Fatal(err)
	}
	if svc.StoreCount() != 60 {
		t.Fatalf("remote store holds %d", svc.StoreCount())
	}
	got, err := svc.LookupLabeled(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("retrieved %d over the wire, want 60", len(got))
	}
}

func TestReindexAfterEmbedderSwap(t *testing.T) {
	svc := newService(t)
	a, b := twoRegimes(20, 50)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x, _ := Collate(all)
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "hist"); err != nil {
		t.Fatal(err)
	}

	// Reindex under a different embedder (wider dim) with a new K.
	n, err := svc.Reindex(idEmbedder{dim: 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("reindexed %d docs, want 100", n)
	}
	if svc.K() != 5 {
		t.Fatalf("K after reindex = %d, want 5", svc.K())
	}

	// Lookups work against the refreshed index and embeddings: stored
	// embedding dims must match the new embedder.
	qa, _ := twoRegimes(21, 10)
	got, err := svc.LookupLabeled(mustCollate(t, qa))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("post-reindex lookup returned %d", len(got))
	}
	m, err := svc.NearestMatchesExcluding(context.Background(), qa[:1], false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(m[0].Dist, 1) {
		t.Fatal("post-reindex NN search found nothing (stale embedding dims?)")
	}
}

func TestReindexEmptyStoreFails(t *testing.T) {
	svc := newService(t)
	a, _ := twoRegimes(22, 10)
	x, _ := Collate(a)
	if err := svc.FitClustersK(x, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Reindex(svc.Embedder(), 2); err == nil {
		t.Fatal("expected error reindexing empty store")
	}
}

func TestReindexNilEmbedder(t *testing.T) {
	svc := newService(t)
	if _, err := svc.Reindex(nil, 2); err == nil {
		t.Fatal("expected error for nil embedder")
	}
}

func mustCollate(t *testing.T, samples []*codec.Sample) *tensor.Tensor {
	t.Helper()
	x, err := Collate(samples)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestApportionSumsToN(t *testing.T) {
	pdf := []float64{0.5, 0.3, 0.2}
	counts := apportion(pdf, 7)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 7 {
		t.Fatalf("apportioned %d, want 7", total)
	}
	// Largest share gets the most.
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Fatalf("counts %v not ordered by share", counts)
	}
}

func TestCollateRejectsMixedSizes(t *testing.T) {
	s1 := codec.SampleFromFloats([]float64{1}, []int{1}, codec.F64, nil)
	s2 := codec.SampleFromFloats([]float64{1, 2}, []int{2}, codec.F64, nil)
	if _, err := Collate([]*codec.Sample{s1, s2}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Collate(nil); err == nil {
		t.Fatal("expected error for empty set")
	}
}
