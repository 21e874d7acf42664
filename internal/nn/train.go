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
	// Loss (default MSE) must be a row mean — the mean over the batch's
	// rows of a per-row loss, as MSE is: Fit splits a batch
	// into row blocks and weights each block's loss and gradient by its
	// share of the rows, which adds up to the batch's only for a row mean.
	Loss LossFunc

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
//
// A step whose work reaches tensor.ForkWork is data-parallel: its batch is
// cut into contiguous, near-equal blocks of about blockRows rows, which
// train at once through tensor.ParallelWork — block 0 on the model, every
// other block on a replica built once per call. A block runs forward, the
// loss on its rows and backward, its loss and gradient weighted by its
// share of the rows; after the join the caller adds the blocks' gradients
// into the model's in block order and steps the optimizer. How a batch is
// cut depends only on its size and the model's shapes, so the weights
// after a fit are the same bytes at any GOMAXPROCS. A Dropout draws from
// its own generator in block 0 and, in every other block, from a generator
// seeded from that one on the caller before the fork.
func Fit(model *Model, opt *Adam, x, y, valX, valY *tensor.Tensor, cfg TrainConfig) *TrainResult {
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
	steps := newStepper(model, cfg.BatchSize, cfg.Loss)
	// The validation forward's intermediates are Fit's for the whole fit,
	// not pooled: an epoch's evaluation allocates the same on every run.
	valSlots := model.evalSlots()

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
			opt.ZeroGrad()
			loss := steps.step(x, y, perm[lo:hi])
			if cfg.ClipNorm > 0 {
				ClipGradNorm(model, cfg.ClipNorm)
			}
			opt.Step()
			epochLoss += loss
			batches++
		}
		trainLoss := epochLoss / float64(batches)
		res.TrainLoss = append(res.TrainLoss, trainLoss)

		val, _ := cfg.Loss(model.forwardEval(valX, valSlots), valY)
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

// blockRows is the row count Fit cuts a forking step's batch into: eight
// BraggNN samples are ≈ 0.2 ms of work, four times the ≈ 50 µs a goroutine
// fork and join costs on a 2-vCPU host, where a fork per operation inside
// a step (blocks of ≈ 10 µs) loses.
const blockRows = 8

// stepper runs Fit's training steps.
type stepper struct {
	loss    LossFunc
	rowWork int              // see rowWork
	blocks  []*block         // blocks[0] trains the model, the others replicas
	run     func(lo, hi int) // runBlocks, bound once so a step does not allocate it

	// The step in flight: the dataset, the rows of its batch, and how many
	// blocks they are cut into.
	x, y    *tensor.Tensor
	rows    []int
	nblocks int
}

// block is one row block's training state.
type block struct {
	net    *Model
	params []*Param
	first  int           // index of net's first layer with parameters (len(layers) if none)
	drops  [][2]*Dropout // (the model's, net's) Dropout pairs; none for the model itself
	x, y   *tensor.Tensor
	loss   float64 // the last step's loss on the block, weighted by its share of the rows
}

func newStepper(model *Model, batch int, loss LossFunc) *stepper {
	s := &stepper{loss: loss, rowWork: rowWork(model)}
	s.run = s.runBlocks
	s.blocks = []*block{newBlock(model, nil)}
	for range s.blockCount(batch) - 1 {
		s.blocks = append(s.blocks, newBlock(model.replica(), model))
	}
	return s
}

// newBlock returns the block that trains net, a replica of model (nil when
// net is the model).
func newBlock(net, model *Model) *block {
	b := &block{net: net, params: net.Params(), first: len(net.layers)}
	for i, l := range net.layers {
		if _, ok := l.(weighted); ok {
			b.first = i
			break
		}
	}
	if model != nil {
		for i, l := range net.layers {
			if d, ok := l.(*Dropout); ok {
				b.drops = append(b.drops, [2]*Dropout{model.layers[i].(*Dropout), d})
			}
		}
	}
	return b
}

// rowWork is the multiply-adds one row costs a training step: every layer
// with weights runs a forward product, a weight-gradient product and an
// input-gradient product of the same size. The element-wise layers are
// small beside them and left out.
func rowWork(m *Model) int {
	w := 0
	for _, l := range m.layers {
		switch l := l.(type) {
		case *Linear:
			w += l.In * l.Out
		case *Conv2d:
			rows, cols := l.colShape()
			w += l.OutC * rows * cols
		}
	}
	return 3 * w
}

// blockCount is how many blocks a step over rows rows is cut into: one
// while the step's work stays under tensor.ForkWork, one per blockRows rows
// (rounded up) from there.
func (s *stepper) blockCount(rows int) int {
	if rows*s.rowWork < tensor.ForkWork {
		return 1
	}
	return (rows + blockRows - 1) / blockRows
}

// step trains on the rows of (x, y) that rows names, accumulating into the
// model's gradients, and returns the batch's loss.
func (s *stepper) step(x, y *tensor.Tensor, rows []int) float64 {
	s.x, s.y, s.rows = x, y, rows
	s.nblocks = s.blockCount(len(rows))
	used := s.blocks[:s.nblocks]
	for _, b := range used[1:] {
		for _, d := range b.drops {
			d[1].rng.Seed(d[0].rng.Int63())
		}
	}
	tensor.ParallelWork(s.nblocks, len(rows)*s.rowWork, s.run)

	loss := used[0].loss
	for _, b := range used[1:] {
		loss += b.loss
		for i, p := range b.params {
			dst, src := used[0].params[i].Grad.Data(), p.Grad.Data()
			for j, g := range src {
				dst[j] += g
				src[j] = 0 // the replica's next step starts from zero
			}
		}
	}
	return loss
}

// runBlocks trains blocks [lo, hi) of the step in flight.
func (s *stepper) runBlocks(lo, hi int) {
	n := len(s.rows)
	for i := lo; i < hi; i++ {
		r0, r1 := i*n/s.nblocks, (i+1)*n/s.nblocks
		s.blocks[i].train(s.x, s.y, s.rows[r0:r1], float64(r1-r0)/float64(n), s.loss)
	}
}

// train runs forward, loss and backward over the given rows of (x, y), the
// loss and its gradient weighted by share.
func (b *block) train(x, y *tensor.Tensor, rows []int, share float64, loss LossFunc) {
	b.x = GatherInto(b.x, x, rows)
	b.y = GatherInto(b.y, y, rows)
	l, grad := loss(b.net.Forward(b.x, true), b.y)
	if share != 1 {
		tensor.ScaleInPlace(grad, share)
	}
	b.loss = l * share
	// Nothing wants the gradient w.r.t. the network's input: the layers in
	// front of the first one with parameters do not run, and that one
	// computes no input gradient.
	layers := b.net.layers
	for i := len(layers) - 1; i > b.first; i-- {
		grad = layers[i].Backward(grad)
	}
	if b.first < len(layers) {
		layers[b.first].(weighted).backward(grad, false)
	}
}
