package models

import (
	"math/rand"
	"runtime"
	"testing"

	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// TestTrainStepAllocations pins the workspace contract from the outside: once
// a BraggNN has seen a batch, a whole training step — zero the gradients,
// forward, loss, backward, Adam — allocates only the loss function's
// gradient tensor (its header, its shape and its batch×2 values), whatever
// the batch size and the patch size. One activation-sized slice per step
// would show up here as a fourth allocation.
func TestTrainStepAllocations(t *testing.T) {
	for _, tc := range []struct{ patch, batch int }{{9, 16}, {15, 16}, {15, 32}, {15, 10}} {
		rng := rand.New(rand.NewSource(31))
		net := NewBraggNN(rng, tc.patch).Net
		opt := nn.NewAdam(net.Params(), 1e-3)
		x := tensor.RandUniform(rng, 0, 1, tc.batch, tc.patch*tc.patch)
		y := tensor.RandUniform(rng, 0, 1, tc.batch, 2)
		step := func() {
			opt.ZeroGrad()
			_, grad := nn.MSE(net.Forward(x, true), y)
			net.Backward(grad)
			opt.Step()
		}
		step() // grow the workspaces
		if got := testing.AllocsPerRun(20, step); got > 3 {
			t.Errorf("patch %d batch %d: a warmed training step makes %.0f allocations, want the loss gradient's 3", tc.patch, tc.batch, got)
		}
	}
}

// TestFitStepAllocations holds Fit's data-parallel step to the same
// contract: a warmed step allocates the fork's goroutines and each block's
// loss gradient, and nothing activation-sized. Two one-epoch fits of a
// BraggNN at batch 16 that differ only in their number of steps differ in
// what they allocate by exactly that many steps, since everything else a
// fit allocates — the permutation, the replicas and their workspaces, the
// evaluation — is the same number of allocations in both.
func TestFitStepAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net := NewBraggNN(rng, 15).Net
	opt := nn.NewAdam(net.Params(), 1e-3)
	x := tensor.RandUniform(rng, 0, 1, 320, 225)
	y := tensor.RandUniform(rng, 0, 1, 320, 2)
	valX := tensor.RandUniform(rng, 0, 1, 8, 225)
	valY := tensor.RandUniform(rng, 0, 1, 8, 2)
	fit := func(rows int) (allocs, bytes float64) {
		xs, ys := nn.Gather(x, seq(rows)), nn.Gather(y, seq(rows))
		cfg := nn.TrainConfig{Epochs: 1, BatchSize: 16, Seed: 33}
		nn.Fit(net, opt, xs, ys, valX, valY, cfg) // warm the model's workspaces
		return allocated(5, func() { nn.Fit(net, opt, xs, ys, valX, valY, cfg) })
	}
	shortAllocs, shortBytes := fit(160)
	longAllocs, longBytes := fit(320)
	const extraSteps = (320 - 160) / 16
	perStep := (longAllocs - shortAllocs) / extraSteps
	bytesPerStep := (longBytes - shortBytes - 160*8) / extraSteps // the longer fit's permutation holds 160 more ints

	// Two blocks of 8: each block's loss gradient is three allocations (its
	// header, shape and 8×2 values), and the fork costs what forking two
	// blocks costs at this GOMAXPROCS (none at 1). Now and then the runtime
	// allocates a goroutine instead of reusing one: two allocations of slack.
	const lossAllocs = 2 * 3
	forkAllocs, _ := allocated(50, func() { tensor.ParallelWork(2, tensor.ForkWork, func(lo, hi int) {}) })
	if perStep > lossAllocs+forkAllocs+2 {
		t.Errorf("a warmed Fit step makes %.1f allocations, want at most %d (loss) + %.1f (fork) + 2", perStep, lossAllocs, forkAllocs)
	}
	// Those are a few hundred bytes; one block's 8×32 hidden activation
	// alone would be 2 KiB.
	if bytesPerStep >= 2048 {
		t.Errorf("a warmed Fit step allocates %.0f bytes, as much as an activation", bytesPerStep)
	}
}

// allocated returns the mean allocations and bytes of runs calls of f. It
// is testing.AllocsPerRun without the switch to GOMAXPROCS 1, under which a
// fit would never fork.
func allocated(runs int, f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
