package nn

import (
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// hookFixture builds a small deterministic regression problem and a fresh
// model for it.
func hookFixture(seed int64) (model *Model, x, y *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	n, d := 64, 6
	x = tensor.New(n, d)
	y = tensor.New(n, 1)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < d; j++ {
			v := rng.Float64()
			x.Set(v, i, j)
			sum += v
		}
		y.Set(sum/float64(d), i, 0)
	}
	model = Sequential(NewLinear(rng, d, 8), NewReLU(), NewLinear(rng, 8, 1))
	return model, x, y
}

// TestFitHookParity asserts that setting OnEpoch and Stop hooks that never
// interfere leaves the run bit-identical to a hookless one.
func TestFitHookParity(t *testing.T) {
	base, x, y := hookFixture(7)
	cfg := TrainConfig{Epochs: 12, BatchSize: 16, Seed: 3}
	ref := Fit(base, NewAdam(base.Params(), 0.05), x, y, x, y, cfg)

	hooked, _, _ := hookFixture(7)
	var epochs []int
	cfg.OnEpoch = func(epoch int, trainLoss, valLoss float64) bool {
		epochs = append(epochs, epoch)
		return true
	}
	cfg.Stop = func() bool { return false }
	got := Fit(hooked, NewAdam(hooked.Params(), 0.05), x, y, x, y, cfg)

	if got.Epochs != ref.Epochs || got.Converged != ref.Converged || got.Stopped {
		t.Fatalf("hooked run diverged: got %+v want %+v", got, ref)
	}
	for i := range ref.TrainLoss {
		if got.TrainLoss[i] != ref.TrainLoss[i] || got.ValLoss[i] != ref.ValLoss[i] {
			t.Fatalf("epoch %d losses differ: (%g,%g) vs (%g,%g)",
				i+1, got.TrainLoss[i], got.ValLoss[i], ref.TrainLoss[i], ref.ValLoss[i])
		}
	}
	if len(epochs) != ref.Epochs {
		t.Fatalf("OnEpoch fired %d times, want %d", len(epochs), ref.Epochs)
	}
	for i, e := range epochs {
		if e != i+1 {
			t.Fatalf("OnEpoch epoch sequence %v is not 1..N", epochs)
		}
	}
}

// TestFitOnEpochStops asserts a false return ends training after that epoch.
func TestFitOnEpochStops(t *testing.T) {
	model, x, y := hookFixture(11)
	res := Fit(model, NewAdam(model.Params(), 0.05), x, y, x, y, TrainConfig{
		Epochs: 50, BatchSize: 16, Seed: 3,
		OnEpoch: func(epoch int, _, _ float64) bool { return epoch < 4 },
	})
	if res.Epochs != 4 {
		t.Fatalf("expected stop after epoch 4, ran %d", res.Epochs)
	}
	if res.Stopped {
		t.Fatal("OnEpoch stop must not set Stopped (that flags a mid-epoch abort)")
	}
}

// TestFitStopAbortsMidEpoch asserts the Stop signal aborts promptly without
// recording a partial epoch.
func TestFitStopAbortsMidEpoch(t *testing.T) {
	model, x, y := hookFixture(13)
	calls := 0
	res := Fit(model, NewAdam(model.Params(), 0.05), x, y, x, y, TrainConfig{
		Epochs: 50, BatchSize: 8, Seed: 3,
		Stop: func() bool { calls++; return calls > 10 }, // trips mid-epoch 2 (8 batches/epoch)
	})
	if !res.Stopped {
		t.Fatal("expected Stopped=true")
	}
	if res.Epochs != 1 || len(res.TrainLoss) != 1 || len(res.ValLoss) != 1 {
		t.Fatalf("partial epoch leaked into the result: %+v", res)
	}
}
