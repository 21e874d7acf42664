package embed

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"fairdms/internal/tensor"
)

// raceEnabled reports whether the test binary was built with -race, whose
// sync.Pool drops a random quarter of puts: allocation counts of pooled
// code mean nothing there.
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

// TestScaledMatchesScaleThenEmbed: Scaled's pooled scaled copy holds the
// bits tensor.Scale would, so the embeddings are the inner embedder's on
// tensor.Scale(x, Factor), even on inputs whose products overflow or
// underflow.
func TestScaledMatchesScaleThenEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ae := NewAutoencoder(rng, 36, 16, 4)
	x := tensor.Randn(rng, 100, 9, 36)
	x.Data()[3], x.Data()[40], x.Data()[77] = 1e308, 5e-324, math.Copysign(0, -1)
	for _, f := range []float64{1, 1.0 / 255, 3} {
		got := Scaled{E: ae, Factor: f}.Embed(x)
		want := ae.Embed(tensor.Scale(x, f))
		for i, v := range want.Data() {
			if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(v) && !(math.IsNaN(g) && math.IsNaN(v)) {
				t.Fatalf("factor %g: element %d is %g, want %g", f, i, g, v)
			}
		}
	}
}

// TestAutoencoderEmbedOnlyReadsItsInput: the encoder's eval pass leaves
// its input's bits as they were, and at factor 1 Scaled embeds exactly
// as the bare autoencoder does. That is what lets a factor-1 deployment
// skip Scaled's copy.
func TestAutoencoderEmbedOnlyReadsItsInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ae := NewAutoencoder(rng, 36, 16, 4)
	x := tensor.Randn(rng, 100, 9, 36)
	x.Data()[5], x.Data()[50] = math.Copysign(0, -1), -1e300
	before := x.Clone()
	got := ae.Embed(x)
	for i, v := range before.Data() {
		if math.Float64bits(x.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("Embed wrote its input at %d: %g, was %g", i, x.Data()[i], v)
		}
	}
	want := Scaled{E: ae, Factor: 1}.Embed(x)
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("element %d is %g bare, %g through Scaled at factor 1", i, got.Data()[i], v)
		}
	}
}

// TestEmbedRowsOwnTheirValues: EmbedRows' rows are the embedder's result,
// not pooled storage, so they keep their values while other passes reuse
// the pool; and each is capped at its own row, so an append cannot write
// into the next.
func TestEmbedRowsOwnTheirValues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e := Scaled{E: NewAutoencoder(rng, 121, 64, 8), Factor: 0.5}
	x := tensor.Randn(rng, 1, 16, 121)
	rows := EmbedRows(e, x)
	want := make([][]float64, len(rows))
	for i, r := range rows {
		want[i] = append([]float64(nil), r...)
	}
	for range 4 {
		EmbedRows(e, tensor.Randn(rng, 1, 64, 121))
	}
	_ = append(rows[0], math.NaN())
	for i, r := range rows {
		if len(r) != 8 || cap(r) != 8 {
			t.Fatalf("row %d has len %d cap %d, want 8 and 8", i, len(r), cap(r))
		}
		for j, v := range r {
			if v != want[i][j] {
				t.Fatalf("row %d element %d changed from %g to %g", i, j, want[i][j], v)
			}
		}
	}
}

// TestServingEmbedAllocations pins the serving embed pass's garbage: a
// warmed EmbedRows over Scaled{autoencoder} of a 64-row batch allocates the
// encoder's result, the slot list and the row views — not the scaled copy,
// the collated input or any layer's intermediate.
func TestServingEmbedAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops pooled buffers")
	}
	rng := rand.New(rand.NewSource(9))
	var e Embedder = Scaled{E: NewAutoencoder(rng, 121, 64, 8), Factor: 1.0 / 255}
	x := tensor.RandUniform(rng, 0, 255, 64, 121)
	EmbedRows(e, x)
	if got := testing.AllocsPerRun(50, func() { EmbedRows(e, x) }); got > 8 {
		t.Errorf("a warmed serving EmbedRows makes %.0f allocations, want at most 8", got)
	}
}

// BenchmarkServingEmbed is the embed pass of a 64-sample serving read:
// EmbedRows over Scaled{autoencoder 121→64→8}.
func BenchmarkServingEmbed(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	e := Scaled{E: NewAutoencoder(rng, 121, 64, 8), Factor: 1.0 / 255}
	x := tensor.RandUniform(rng, 0, 255, 64, 121)
	b.ReportAllocs()
	for b.Loop() {
		EmbedRows(e, x)
	}
}
