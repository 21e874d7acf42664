package models

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"fairdms/internal/embed"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// TestSharedEvalBesideTraining pins nn's buffer-ownership rule from the
// serving side (run it under -race): eight goroutines run eval-mode forwards
// on one shared BraggNN and one shared embedding encoder — batches on both
// sides of the fork threshold — while another goroutine trains a different
// BraggNN instance. Eval-mode forwards write no layer state, so every output
// must equal the single-threaded reference bit for bit, and training, which
// owns its instance's workspaces, must not disturb them.
func TestSharedEvalBesideTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const patch = 15
	shared := NewBraggNN(rng, patch).Net
	encoder := embed.NewAutoencoder(rng, patch*patch, 64, 8)
	trained := NewBraggNN(rng, patch).Net

	batches := []*tensor.Tensor{
		tensor.RandUniform(rng, 0, 1, 5, patch*patch),
		tensor.RandUniform(rng, 0, 1, 96, patch*patch), // large enough for the eval paths to fork
	}
	wantNet := make([]*tensor.Tensor, len(batches))
	wantEmb := make([]*tensor.Tensor, len(batches))
	for i, x := range batches {
		wantNet[i] = shared.Forward(x, false)
		wantEmb[i] = encoder.Embed(x)
	}

	stop := make(chan struct{})
	var trainer sync.WaitGroup
	trainer.Add(1)
	go func() {
		defer trainer.Done()
		opt := nn.NewAdam(trained.Params(), 1e-3)
		trng := rand.New(rand.NewSource(52))
		for step := 0; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			n := 16 - 6*(step%2) // alternate full and short batches
			x := tensor.RandUniform(trng, 0, 1, n, patch*patch)
			y := tensor.RandUniform(trng, 0, 1, n, 2)
			opt.ZeroGrad()
			_, grad := nn.MSE(trained.Forward(x, true), y)
			trained.Backward(grad)
			opt.Step()
		}
	}()

	same := func(got, want *tensor.Tensor) bool {
		if !got.SameShape(want) {
			return false
		}
		for i, v := range want.Data() {
			if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
				return false
			}
		}
		return true
	}
	var readers sync.WaitGroup
	for w := 0; w < 8; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for round := 0; round < 6; round++ {
				i := (w + round) % len(batches)
				if !same(shared.Forward(batches[i], false), wantNet[i]) {
					t.Errorf("reader %d round %d: shared BraggNN output differs from the single-threaded reference", w, round)
				}
				if !same(encoder.Embed(batches[i]), wantEmb[i]) {
					t.Errorf("reader %d round %d: shared encoder output differs from the single-threaded reference", w, round)
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	trainer.Wait()
}
