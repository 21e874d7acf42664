package embed

import (
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// recordingEmbedder captures a copy of its input for inspection: x itself
// is only its to read during the call.
type recordingEmbedder struct {
	dim  int
	last *tensor.Tensor
}

func (r *recordingEmbedder) Dim() int { return r.dim }
func (r *recordingEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	r.last = x.Clone()
	return tensor.New(x.Dim(0), r.dim)
}

func TestScaledAppliesFactor(t *testing.T) {
	inner := &recordingEmbedder{dim: 2}
	s := Scaled{E: inner, Factor: 1.0 / 255}
	x := tensor.Full(255, 1, 4)
	s.Embed(x)
	if inner.last == nil {
		t.Fatal("inner embedder never called")
	}
	for _, v := range inner.last.Data() {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("scaled input %g, want 1", v)
		}
	}
	if s.Dim() != 2 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	// Original input untouched.
	if x.At(0, 0) != 255 {
		t.Fatal("Scaled mutated the caller's tensor")
	}
}

func TestScaledEmbedderSeparatesPopulations(t *testing.T) {
	// An AE trained on [0,1]-scaled data, fed raw 8-bit counts through the
	// Scaled wrapper, must separate two visually distinct populations —
	// the deployment pattern used for CookieBox detector counts.
	rng := rand.New(rand.NewSource(1))
	n, feats := 24, 36
	x := tensor.New(n, feats)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		// Two populations with different bright regions, 8-bit scale.
		off := 0
		if i%2 == 1 {
			off = feats / 2
			labels[i] = 1
		}
		for j := 0; j < feats/2; j++ {
			x.Set(150+50*rng.Float64(), i, (off+j)%feats)
		}
	}
	ae := NewAutoencoder(rng, feats, 32, 4)
	ae.Train(tensor.Scale(x, 1.0/255), TrainConfig{Epochs: 30, BatchSize: 8, LR: 1e-3, Seed: 2})

	z := EmbedRows(Scaled{E: ae, Factor: 1.0 / 255}, x)
	if sep := separation(z, labels); sep < 1.5 {
		t.Fatalf("wrapped-embedder separation %g, want > 1.5", sep)
	}
}
