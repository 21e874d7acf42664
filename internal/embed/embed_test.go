package embed

import (
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/cluster"
	"fairdms/internal/datagen"
	"fairdms/internal/dataloader"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
)

// twoRegimeData builds a labeled mixture of two visually distinct Bragg
// regimes: narrow Gaussian-ish peaks vs broad Lorentzian ones.
func twoRegimeData(t *testing.T, perRegime int, seed int64) (*tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := datagen.DefaultBraggRegime()
	a.Patch = 11
	b := a
	b.WidthMean = 3.4
	b.EtaMean = 0.9
	sa := a.Generate(rng, perRegime)
	sb := b.Generate(rng, perRegime)
	all := append(sa, sb...)
	batch, err := dataloader.Collate(all)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, 2*perRegime)
	for i := perRegime; i < 2*perRegime; i++ {
		labels[i] = 1
	}
	return batch.X, labels
}

// separation computes mean inter-class distance over mean intra-class
// distance in embedding space — > 1 means classes separate.
func separation(z [][]float64, labels []int) float64 {
	var intra, inter float64
	var nIntra, nInter int
	for i := range z {
		for j := i + 1; j < len(z); j++ {
			d := 0.0
			for k := range z[i] {
				diff := z[i][k] - z[j][k]
				d += diff * diff
			}
			d = math.Sqrt(d)
			if labels[i] == labels[j] {
				intra += d
				nIntra++
			} else {
				inter += d
				nInter++
			}
		}
	}
	return (inter / float64(nInter)) / (intra/float64(nIntra) + 1e-12)
}

func TestAutoencoderTrainsAndSeparatesRegimes(t *testing.T) {
	x, labels := twoRegimeData(t, 40, 1)
	rng := rand.New(rand.NewSource(2))
	ae := NewAutoencoder(rng, x.Dim(1), 64, 8)
	losses := ae.Train(x, TrainConfig{Epochs: 30, BatchSize: 16, LR: 1e-3, Seed: 3})
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("AE loss did not fall: %g -> %g", losses[0], losses[len(losses)-1])
	}
	z := EmbedRows(ae, x)
	if len(z) != x.Dim(0) || len(z[0]) != 8 {
		t.Fatalf("embedding shape %dx%d", len(z), len(z[0]))
	}
	if sep := separation(z, labels); sep < 1.1 {
		t.Fatalf("AE separation %g, want > 1.1", sep)
	}
}

func TestBYOLTrainsAndSeparatesRegimes(t *testing.T) {
	x, labels := twoRegimeData(t, 32, 7)
	rng := rand.New(rand.NewSource(8))
	aug := ImageAugmenter{H: 11, W: 11, Noise: 0.1, ScaleRange: 0.1}
	b := NewBYOL(rng, x.Dim(1), 64, 8, aug.View, 0.95)
	sepBefore := separation(EmbedRows(b, x), labels)
	losses := b.Train(x, TrainConfig{Epochs: 20, BatchSize: 16, LR: 2e-3, Seed: 9})
	if math.IsNaN(losses[len(losses)-1]) {
		t.Fatal("BYOL loss is NaN")
	}
	z := EmbedRows(b, x)
	sep := separation(z, labels)
	if sep < 2 {
		t.Fatalf("BYOL separation %g, want > 2", sep)
	}
	if sep <= sepBefore {
		t.Fatalf("training did not improve separation: %g -> %g", sepBefore, sep)
	}
}

func TestBYOLRotationInvariance(t *testing.T) {
	// The paper's §IV failure analysis: embeddings should treat a peak and
	// its rotation as similar once trained with rotation augmentations.
	x, _ := twoRegimeData(t, 32, 10)
	rng := rand.New(rand.NewSource(11))
	aug := ImageAugmenter{H: 11, W: 11, Noise: 0.05, ScaleRange: 0.05}
	b := NewBYOL(rng, x.Dim(1), 64, 8, aug.View, 0.98)
	b.Train(x, TrainConfig{Epochs: 20, BatchSize: 16, LR: 1e-3, Seed: 12})

	// Rotate each image 90° and compare embeddings.
	rot := tensor.New(x.Dim(0), x.Dim(1))
	for i := 0; i < x.Dim(0); i++ {
		copy(rot.Row(i), x.Row(i))
		rotate90(rot.Row(i), 11)
	}
	z := b.Embed(x)
	zr := b.Embed(rot)
	// Mean distance between an image and its rotation must be well below
	// the mean distance between unrelated images.
	var same, cross float64
	n := z.Dim(0)
	for i := 0; i < n; i++ {
		same += rowDist(z.Row(i), zr.Row(i))
		cross += rowDist(z.Row(i), z.Row((i+7)%n))
	}
	if same >= cross {
		t.Fatalf("rotation distance %g not below unrelated distance %g", same/float64(n), cross/float64(n))
	}
}

func rowDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestEmbeddingsDriveJSDSeparation(t *testing.T) {
	// End-to-end sanity: embeddings + clustering must make same-regime
	// dataset PDFs closer (JSD) than cross-regime PDFs. This is the chain
	// fairMS model ranking depends on.
	x, labels := twoRegimeData(t, 40, 13)
	rng := rand.New(rand.NewSource(14))
	ae := NewAutoencoder(rng, x.Dim(1), 64, 8)
	ae.Train(x, TrainConfig{Epochs: 30, BatchSize: 16, LR: 1e-3, Seed: 15})
	z := EmbedRows(ae, x)

	// Split each regime's embeddings in half → 4 pseudo-datasets.
	var a1, a2, b1, b2 [][]float64
	for i, row := range z {
		switch {
		case labels[i] == 0 && len(a1) < 20:
			a1 = append(a1, row)
		case labels[i] == 0:
			a2 = append(a2, row)
		case labels[i] == 1 && len(b1) < 20:
			b1 = append(b1, row)
		default:
			b2 = append(b2, row)
		}
	}
	km, err := cluster.Fit(z, cluster.Config{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pa1, pa2 := km.PDF(a1), km.PDF(a2)
	pb1 := km.PDF(b1)
	within := stats.JSDivergence(pa1, pa2)
	across := stats.JSDivergence(pa1, pb1)
	if within >= across {
		t.Fatalf("within-regime JSD %g >= across-regime %g", within, across)
	}
}

func TestImageAugmenterPreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	aug := ImageAugmenter{H: 5, W: 5, Noise: 0.1, ScaleRange: 0.2}
	src := make([]float64, 25)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, 25)
	aug.View(rng, src, dst)
	// src must be untouched.
	for i := range src {
		if src[i] != float64(i) {
			t.Fatal("augmenter mutated source")
		}
	}
}

func TestRotate90FourTimesIsIdentity(t *testing.T) {
	img := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	orig := append([]float64(nil), img...)
	for i := 0; i < 4; i++ {
		rotate90(img, 3)
	}
	for i := range img {
		if img[i] != orig[i] {
			t.Fatalf("rot90^4 != id: %v", img)
		}
	}
}

func TestFlipHTwiceIsIdentity(t *testing.T) {
	img := []float64{1, 2, 3, 4, 5, 6}
	orig := append([]float64(nil), img...)
	flipH(img, 2, 3)
	flipH(img, 2, 3)
	for i := range img {
		if img[i] != orig[i] {
			t.Fatalf("flipH² != id: %v", img)
		}
	}
}
