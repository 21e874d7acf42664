package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// serialFit is the reference Fit is held to: one forward, one loss and one
// backward over each whole mini-batch, on the model, through the exported
// Forward and Backward — the loop Fit ran before it cut steps into blocks.
func serialFit(model *Model, opt *Adam, x, y, valX, valY *tensor.Tensor, epochs, batch int, seed int64) (trainLoss, valLoss []float64) {
	rng := rand.New(rand.NewSource(seed))
	n := x.Dim(0)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		sum, batches := 0.0, 0
		for lo := 0; lo < n; lo += batch {
			hi := min(lo+batch, n)
			opt.ZeroGrad()
			loss, grad := MSE(model.Forward(Gather(x, perm[lo:hi]), true), Gather(y, perm[lo:hi]))
			model.Backward(grad)
			opt.Step()
			sum += loss
			batches++
		}
		trainLoss = append(trainLoss, sum/float64(batches))
		valLoss = append(valLoss, Evaluate(model, valX, valY, MSE))
	}
	return trainLoss, valLoss
}

// TestFitMatchesSerialOracle trains two weight-identical, dropout-free
// models, one with Fit and one with serialFit, and compares the per-epoch
// losses and the final weights.
//
// A BraggNN-shaped model at batch 16 forks (two blocks of 8, the short last
// batch of 10 two of 5), so its sums are grouped differently from the
// oracle's: per step the two gradients differ by round-off, a few units of
// 2⁻⁵³ of their size, and Adam turns that into weight differences of the
// same relative order. After five epochs every loss and weight tensor
// here is within 7e-16 of the oracle's, relative to its largest entry. The
// test allows 1e-9: room for the drift of another seed or platform, and
// still far below what a wrongly weighted block does — doubling the
// gradient of half of one batch moves every weight tensor by more than
// 3e-7 after a single step, most by 1e-3. A small MLP never forks: it must
// match the oracle to the bit.
func TestFitMatchesSerialOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(rng *rand.Rand) *Model
		in    int
		tol   float64
	}{
		{"braggnn-like", braggLikeNet, 225, 1e-9},
		{"mlp", func(rng *rand.Rand) *Model {
			return Sequential(NewLinear(rng, 6, 8), NewReLU(), NewLinear(rng, 8, 2), NewSigmoid())
		}, 6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const epochs, batch, seed = 5, 16, 41
			rng := rand.New(rand.NewSource(40))
			x := tensor.Randn(rng, 1, 90, tc.in) // 90 = 5×16 + 10: every epoch ends on a short batch
			y := tensor.RandUniform(rng, 0, 1, 90, 2)
			valX := tensor.Randn(rng, 1, 20, tc.in)
			valY := tensor.RandUniform(rng, 0, 1, 20, 2)
			got := tc.build(rand.New(rand.NewSource(42)))
			want := tc.build(rand.New(rand.NewSource(42)))

			res := Fit(got, NewAdam(got.Params(), 1e-3), x, y, valX, valY, TrainConfig{Epochs: epochs, BatchSize: batch, Seed: seed})
			trainLoss, valLoss := serialFit(want, NewAdam(want.Params(), 1e-3), x, y, valX, valY, epochs, batch, seed)

			near := func(what string, got, want []float64) {
				t.Helper()
				scale := 0.0
				for _, v := range want {
					scale = math.Max(scale, math.Abs(v))
				}
				for i, w := range want {
					if d := math.Abs(got[i] - w); !(d <= tc.tol*scale) {
						t.Fatalf("%s[%d] = %.17g, oracle %.17g (off by %g, allowed %g)", what, i, got[i], w, d, tc.tol*scale)
					}
				}
			}
			near("train loss", res.TrainLoss, trainLoss)
			near("validation loss", res.ValLoss, valLoss)
			for i, p := range got.Params() {
				near(fmt.Sprintf("%s weights", p.Name), p.Value.Data(), want.Params()[i].Value.Data())
			}
		})
	}
}

// TestSplitParamsCoversEveryElementOnce checks the update's ranges: for any
// member count, every element of every parameter lands in exactly one.
func TestSplitParamsCoversEveryElementOnce(t *testing.T) {
	params := braggLikeNet(rand.New(rand.NewSource(66))).Params()
	for k := 1; k <= 5; k++ {
		seen := make([][]int, len(params))
		for i, p := range params {
			seen[i] = make([]int, p.Value.Len())
		}
		for _, r := range splitParams(params, k) {
			for _, sh := range r {
				for j := sh.lo; j < sh.hi; j++ {
					seen[sh.param][j]++
				}
			}
		}
		for i, counts := range seen {
			for j, n := range counts {
				if n != 1 {
					t.Fatalf("k=%d: element %d of %s is in %d ranges", k, j, params[i].Name, n)
				}
			}
		}
	}
}
