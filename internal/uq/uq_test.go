package uq

import (
	"math/rand"
	"testing"

	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
)

func modelWithDropout(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	return nn.Sequential(
		nn.NewLinear(rng, 4, 32), nn.NewReLU(),
		nn.NewDropout(rng, 0.3),
		nn.NewLinear(rng, 32, 2),
	)
}

func TestMCDropoutShapesAndBounds(t *testing.T) {
	m := modelWithDropout(1)
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 5, 4)
	res, err := MCDropout(m, x, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean.Dim(0) != 5 || res.Mean.Dim(1) != 2 {
		t.Fatalf("mean shape %v", res.Mean.Shape())
	}
	for i := range res.Std.Data() {
		if res.Std.Data()[i] < 0 {
			t.Fatal("negative std")
		}
		if res.Lo95.Data()[i] > res.Mean.Data()[i] || res.Hi95.Data()[i] < res.Mean.Data()[i] {
			t.Fatal("bounds do not bracket the mean")
		}
	}
	if res.Width <= 0 {
		t.Fatalf("interval width %g", res.Width)
	}
}

func TestMCDropoutRequiresDropout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := nn.Sequential(nn.NewLinear(rng, 2, 1))
	if _, err := MCDropout(m, tensor.New(1, 2), 10); err == nil {
		t.Fatal("expected error for dropout-free model")
	}
}

func TestMCDropoutRequiresMultiplePasses(t *testing.T) {
	m := modelWithDropout(4)
	if _, err := MCDropout(m, tensor.New(1, 4), 1); err == nil {
		t.Fatal("expected error for T=1")
	}
}

func TestMCDropoutRestoresEvalMode(t *testing.T) {
	m := modelWithDropout(5)
	x := tensor.New(1, 4)
	if _, err := MCDropout(m, x, 5); err != nil {
		t.Fatal(err)
	}
	// After MC sampling, inference must be deterministic again.
	a := m.Forward(x, false).At(0, 0)
	b := m.Forward(x, false).At(0, 0)
	if a != b {
		t.Fatal("MC mode leaked past MCDropout")
	}
}

func TestMeanUncertaintyPositive(t *testing.T) {
	m := modelWithDropout(6)
	rng := rand.New(rand.NewSource(7))
	x := tensor.Randn(rng, 1, 8, 4)
	u, err := MeanUncertainty(m, x, 15)
	if err != nil {
		t.Fatal(err)
	}
	if u <= 0 {
		t.Fatalf("uncertainty %g, want > 0 with active dropout", u)
	}
}

func TestDriftDetectorFiresOnJump(t *testing.T) {
	d := &DriftDetector{Warmup: 4, Threshold: 1.5}
	for i := 0; i < 4; i++ {
		if d.Observe(1.0) {
			t.Fatal("fired during warmup")
		}
	}
	if d.Observe(1.2) {
		t.Fatal("fired below threshold")
	}
	if !d.Observe(2.0) {
		t.Fatal("did not fire at 2× baseline")
	}
	if b := stats.Mean(d.history); b != 1.0 {
		t.Fatalf("baseline = %g", b)
	}
}

func TestDriftDetectorDefaults(t *testing.T) {
	d := &DriftDetector{}
	fired := false
	for i := 0; i < 10; i++ {
		fired = d.Observe(1.0) || fired
	}
	if fired {
		t.Fatal("default detector fired on a flat signal")
	}
}
