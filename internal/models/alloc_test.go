package models

import (
	"math/rand"
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
