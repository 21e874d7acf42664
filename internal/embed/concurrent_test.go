package embed

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fairdms/internal/tensor"
)

// TestEmbedConcurrentUse pins the Embedder contract batch ingest relies on:
// eval-mode forwards on one shared model from many goroutines must be
// race-free (run under -race) and must produce the same embeddings as a
// serial pass.
func TestEmbedConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const in, hidden, dim, n = 12, 16, 4, 32

	aug := ImageAugmenter{H: 1, W: in, Noise: 0.01}.View
	embedders := map[string]Embedder{
		"autoencoder": NewAutoencoder(rng, in, hidden, dim),
		"byol":        NewBYOL(rng, in, hidden, dim, aug, 0.99),
		"scaled":      Scaled{E: NewAutoencoder(rng, in, hidden, dim), Factor: 0.5},
	}

	x := tensor.New(n, in)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}

	for name, e := range embedders {
		t.Run(name, func(t *testing.T) {
			want := e.Embed(x)
			const workers = 8
			got := make([]*tensor.Tensor, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					got[w] = e.Embed(x)
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if got[w].Dim(0) != n || got[w].Dim(1) != dim {
					t.Fatalf("worker %d: embedding shape (%d,%d), want (%d,%d)",
						w, got[w].Dim(0), got[w].Dim(1), n, dim)
				}
				for i, v := range got[w].Data() {
					if v != want.Data()[i] {
						t.Fatalf("worker %d: embedding diverges from serial pass at elem %d: %g != %g",
							w, i, v, want.Data()[i])
					}
				}
			}
		})
	}
}

// TestEmbedConcurrentMixedBatches: the serving embed pass — Scaled over an
// autoencoder, its scaled copy and every intermediate in pooled buffers —
// run from many goroutines at once on one shared model, with batches of 1,
// 7 and 64 rows interleaved so pooled buffers change hands between shapes,
// gives each batch the embeddings of a serial pass, bit for bit. Run under
// -race.
func TestEmbedConcurrentMixedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := Scaled{E: NewAutoencoder(rng, 121, 64, 8), Factor: 1.0 / 255}
	var xs []*tensor.Tensor
	var wants [][][]float64
	for _, rows := range []int{1, 7, 64} {
		x := tensor.RandUniform(rng, 0, 255, rows, 121)
		xs, wants = append(xs, x), append(wants, EmbedRows(e, x))
	}
	const workers, rounds = 8, 24
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				i := (w + r) % len(xs)
				for row, z := range EmbedRows(e, xs[i]) {
					for j, v := range z {
						if math.Float64bits(v) != math.Float64bits(wants[i][row][j]) {
							errs <- "a concurrent embedding differs from the serial pass"
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
