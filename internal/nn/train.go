package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fairdms/internal/tensor"
)

// LossFunc computes a scalar loss and its gradient w.r.t. the prediction.
type LossFunc func(pred, target *tensor.Tensor) (float64, *tensor.Tensor)

// TrainConfig controls a Fit run.
type TrainConfig struct {
	Epochs     int     // maximum epochs
	BatchSize  int     // mini-batch size (clamped to the dataset)
	TargetLoss float64 // stop once validation loss <= TargetLoss (0 disables)
	Patience   int     // stop after this many epochs without val improvement (0 disables)
	ClipNorm   float64 // gradient clipping threshold (0 disables)
	Seed       int64   // shuffling seed
	Loss       LossFunc

	// OnEpoch, when set, receives each completed epoch (1-based) with its
	// train and validation losses — the live progress feed of an async
	// training job. Returning false stops training after that epoch.
	// Leaving it nil changes nothing about the run.
	OnEpoch func(epoch int, trainLoss, valLoss float64) bool
	// Stop, when set, is polled before every mini-batch; a true return
	// aborts the run immediately, mid-epoch, without recording the partial
	// epoch (TrainResult.Stopped reports the abort). Leaving it nil changes
	// nothing about the run.
	Stop func() bool
}

// TrainResult records per-epoch losses and where training stopped.
type TrainResult struct {
	TrainLoss []float64
	ValLoss   []float64
	Epochs    int  // epochs actually run
	Converged bool // true if TargetLoss was reached
	Stopped   bool // true if TrainConfig.Stop aborted the run mid-epoch
}

// ConvergedAt returns the first epoch (1-based) whose validation loss is at
// or below target, or -1 if never reached.
func (r *TrainResult) ConvergedAt(target float64) int {
	for i, v := range r.ValLoss {
		if v <= target {
			return i + 1
		}
	}
	return -1
}

// Gather builds a batch tensor from the given rows of a 2-D tensor.
func Gather(x *tensor.Tensor, rows []int) *tensor.Tensor {
	return GatherInto(nil, x, rows)
}

// GatherInto is Gather into a buffer the caller keeps across batches: it
// returns dst re-shaped over its own storage when that is large enough (see
// tensor.Reuse2D) and a new tensor otherwise; dst may be nil.
func GatherInto(dst, x *tensor.Tensor, rows []int) *tensor.Tensor {
	if x.NDim() != 2 {
		panic(fmt.Sprintf("nn: Gather on %d-dimensional tensor", x.NDim()))
	}
	dst = tensor.Reuse2D(dst, len(rows), x.Dim(1))
	for i, r := range rows {
		copy(dst.Row(i), x.Row(r))
	}
	return dst
}

// Fit trains the model on (x, y) with mini-batch gradient descent, evaluating
// on (valX, valY) after each epoch. It returns per-epoch loss curves — the
// raw material for the paper's Figs. 13–14 learning-curve comparisons.
func Fit(model *Model, opt Optimizer, x, y, valX, valY *tensor.Tensor, cfg TrainConfig) *TrainResult {
	if cfg.Loss == nil {
		cfg.Loss = MSE
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize > x.Dim(0) {
		cfg.BatchSize = x.Dim(0)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Dim(0)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}

	// Every mini-batch is gathered into the same two tensors; with the
	// layers' workspaces that makes a warmed step allocation-free apart from
	// what the loss function returns.
	var bx, by *tensor.Tensor

	res := &TrainResult{}
	bestVal := math.Inf(1)
	stale := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		epochLoss := 0.0
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			if cfg.Stop != nil && cfg.Stop() {
				res.Stopped = true
				return res
			}
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			bx = GatherInto(bx, x, perm[lo:hi])
			by = GatherInto(by, y, perm[lo:hi])
			opt.ZeroGrad()
			pred := model.Forward(bx, true)
			loss, grad := cfg.Loss(pred, by)
			model.Backward(grad)
			if cfg.ClipNorm > 0 {
				ClipGradNorm(model, cfg.ClipNorm)
			}
			opt.Step()
			epochLoss += loss
			batches++
		}
		trainLoss := epochLoss / float64(batches)
		res.TrainLoss = append(res.TrainLoss, trainLoss)

		val := Evaluate(model, valX, valY, cfg.Loss)
		res.ValLoss = append(res.ValLoss, val)
		res.Epochs = epoch + 1

		// The progress hook sees every completed epoch, including the one
		// that converges; its stop request only matters if the run was going
		// to continue anyway.
		hookStop := cfg.OnEpoch != nil && !cfg.OnEpoch(epoch+1, trainLoss, val)
		if cfg.TargetLoss > 0 && val <= cfg.TargetLoss {
			res.Converged = true
			break
		}
		if hookStop {
			break
		}
		if val < bestVal-1e-12 {
			bestVal = val
			stale = 0
		} else {
			stale++
			if cfg.Patience > 0 && stale >= cfg.Patience {
				break
			}
		}
	}
	return res
}

// Evaluate returns the loss of the model on (x, y) in inference mode.
func Evaluate(model *Model, x, y *tensor.Tensor, loss LossFunc) float64 {
	if loss == nil {
		loss = MSE
	}
	pred := model.Forward(x, false)
	l, _ := loss(pred, y)
	return l
}
