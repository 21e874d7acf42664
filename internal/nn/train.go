package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
// raw material for the paper's Figs. 13–14 learning-curve comparisons. opt
// must step exactly the model's parameters, as NewAdam(model.Params(), …)
// does; Fit panics otherwise.
//
// A step whose work reaches tensor.ForkWork is data-parallel: its batch is
// cut into contiguous, near-equal blocks of about blockRows rows — block 0
// trains the model, every other block a replica built once per call. A
// block runs forward, the loss on its rows and backward, its loss and
// gradient weighted by its share of the rows. Fit runs everything a step
// and an epoch do on one team of goroutines that lives for the whole call:
// the caller and, while the process has cores to spare, helpers started
// once (never more members than a step has blocks). The members share out
// a step's blocks; then the step's update, cut into one element range of
// every parameter per member, over which a member adds the replicas'
// gradients into the model's in block order and runs Adam; then, once an
// epoch, the validation rows, in chunks small enough that no product in
// them forks (whole, for a caller without helpers), whose loss the caller
// computes over the whole output in row order. How a batch is cut depends
// only on its size and the model's shapes, and every element gets the same
// operations in the same order whichever member runs it, so the weights
// after a fit are the same bytes at any GOMAXPROCS. A Dropout draws from
// its own generator in block 0 and, in every other block, from a generator
// the block seeds from a seed the caller drew from that one, in block
// order, before the step. A panic in any member is raised on the caller
// once the phase it happened in is over, and no helper outlives the call.
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
	steps := newStepper(model, opt, cfg.BatchSize, cfg.Loss, valX)
	defer steps.team.close()

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
			epochLoss += steps.step(x, y, perm[lo:hi])
			batches++
		}
		trainLoss := epochLoss / float64(batches)
		res.TrainLoss = append(res.TrainLoss, trainLoss)

		val, _ := cfg.Loss(steps.validate(), valY)
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
// BraggNN samples are ≈ 0.2 ms of work, several times a hand-off between
// the team's members, while a cut per operation inside a step (blocks of
// ≈ 10 µs) loses. It is fixed, not sized from the team: how a batch is cut
// decides its bits.
const blockRows = 8

// stepper runs Fit's training steps and validation passes on its team.
type stepper struct {
	opt     *Adam
	loss    LossFunc
	rowWork int      // see rowWork
	blocks  []*block // blocks[0] trains the model, the others replicas
	team    *team

	// The phases' bodies, bound once so a step does not allocate them.
	trainBlock, updateRange, evalChunk func(i int)

	ranges [][]share // an update's items: one element range of every parameter each
	update adamStep  // the step in flight's bias corrections

	// The step in flight: the dataset, the rows of its batch, and how many
	// blocks they are cut into.
	x, y    *tensor.Tensor
	rows    []int
	nblocks int

	// The validation pass: the model, valX cut into chunks, and the whole
	// pass's output.
	model  *Model
	chunks []chunk
	valOut *tensor.Tensor
}

// block is one row block's training state.
type block struct {
	net    *Model
	params []*Param
	first  int           // index of net's first layer with parameters (len(layers) if none)
	drops  [][2]*Dropout // (the model's, net's) Dropout pairs; none for the model itself
	seeds  []int64       // the step's seed for each of net's Dropouts
	x, y   *tensor.Tensor
	loss   float64 // the last step's loss on the block, weighted by its share of the rows
}

// share is an update range's part of one parameter: elements [lo, hi) of
// the model's, and the optimizer's, parameter param.
type share struct{ param, lo, hi int }

// chunk is a run of validation rows, with the slots its pass writes every
// layer's output into — the last layer's, out, is the chunk's result. The
// slots are the chunk's, not a member's, so what a fit allocates does not
// depend on which member takes which chunk.
type chunk struct {
	lo, hi int
	x, out *tensor.Tensor
	slots  []*tensor.Tensor
}

func newStepper(model *Model, opt *Adam, batch int, loss LossFunc, valX *tensor.Tensor) *stepper {
	s := &stepper{opt: opt, loss: loss, rowWork: rowWork(model), model: model}
	s.trainBlock, s.updateRange, s.evalChunk = s.trainOne, s.updateOne, s.evalOne
	s.blocks = []*block{newBlock(model, nil)}
	for range s.blockCount(batch) - 1 {
		s.blocks = append(s.blocks, newBlock(model.replica(), model))
	}
	if !slices.Equal(opt.params, s.blocks[0].params) {
		panic("nn: Fit's optimizer must step the model's parameters, in the model's order")
	}
	s.team = newTeam(len(s.blocks))
	s.ranges = splitParams(s.blocks[0].params, s.team.size())
	// The chunks' slots are Fit's own, not pooled: an epoch's evaluation
	// allocates the same on every run.
	s.chunks = cutRows(valX, evalRows(model), s.team.size())
	for i := range s.chunks {
		s.chunks[i].slots = model.evalSlots()
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
		b.seeds = make([]int64, len(b.drops))
	}
	return b
}

// splitParams cuts the elements of params into k contiguous, near-equal
// ranges, each one share per parameter it touches.
func splitParams(params []*Param, k int) [][]share {
	total := 0
	for _, p := range params {
		total += p.Value.Len()
	}
	out := make([][]share, k)
	at := 0 // the offset of params[i]'s first element
	for i, p := range params {
		n := p.Value.Len()
		for r := range out {
			lo, hi := max(r*total/k, at), min((r+1)*total/k, at+n)
			if lo < hi {
				out[r] = append(out[r], share{param: i, lo: lo - at, hi: hi - at})
			}
		}
		at += n
	}
	return out
}

// rowWork is the multiply-adds one row costs a training step: every layer
// with weights runs a forward product, a weight-gradient product and an
// input-gradient product of the same size. The element-wise layers are
// small beside them and left out.
func rowWork(m *Model) int {
	w := 0
	for _, l := range m.layers {
		if l, ok := l.(weighted); ok {
			w += l.rowForkWork()
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

// step trains on the rows of (x, y) that rows names, updates the weights,
// and returns the batch's loss.
func (s *stepper) step(x, y *tensor.Tensor, rows []int) float64 {
	s.x, s.y, s.rows = x, y, rows
	s.nblocks = s.blockCount(len(rows))
	used := s.blocks[:s.nblocks]
	for _, b := range used[1:] {
		for i, d := range b.drops {
			b.seeds[i] = d[0].rng.Int63()
		}
	}
	s.team.run(s.nblocks, s.trainBlock)

	loss := used[0].loss
	for _, b := range used[1:] {
		loss += b.loss
	}
	s.update = s.opt.next()
	s.team.run(len(s.ranges), s.updateRange)
	return loss
}

// trainOne trains block i of the step in flight. Block 0 clears the
// model's gradients first; every other block seeds its Dropouts.
func (s *stepper) trainOne(i int) {
	b, n := s.blocks[i], len(s.rows)
	if i == 0 {
		s.opt.ZeroGrad()
	}
	for j, d := range b.drops {
		d[1].rng.Seed(b.seeds[j])
	}
	r0, r1 := i*n/s.nblocks, (i+1)*n/s.nblocks
	b.train(s.x, s.y, s.rows[r0:r1], float64(r1-r0)/float64(n), s.loss)
}

// updateOne runs update range r of the step in flight: over each of its
// shares it adds the replicas' gradients into the model's in block order,
// zeroing them for their next step, then runs Adam.
func (s *stepper) updateOne(r int) {
	for _, sh := range s.ranges[r] {
		dst := s.blocks[0].params[sh.param].Grad.Data()[sh.lo:sh.hi]
		for _, b := range s.blocks[1:s.nblocks] {
			src := b.params[sh.param].Grad.Data()[sh.lo:sh.hi]
			for j, g := range src {
				dst[j] += g
				src[j] = 0
			}
		}
		s.opt.apply(s.update, sh.param, sh.lo, sh.hi)
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

// evalRows is the most rows an eval-mode pass of m takes without any layer
// forking (see forking). It is 0 for a model whose Dropout draws at
// inference time (Monte-Carlo mode): that pass is not cut, so its draws keep
// their order.
func evalRows(m *Model) int {
	rows := math.MaxInt
	for _, l := range m.layers {
		switch l := l.(type) {
		case forking:
			rows = min(rows, max(1, (tensor.ForkWork-1)/l.rowForkWork()))
		case *Dropout:
			if l.MC && l.P > 0 {
				return 0
			}
		}
	}
	return rows
}

// cutRows cuts x's rows into contiguous, near-equal chunks of at most
// perChunk rows, and into at least members of them while x has the rows.
// perChunk 0 leaves x whole, and so does a team of one member, which would
// run the chunks one after another anyway.
func cutRows(x *tensor.Tensor, perChunk, members int) []chunk {
	n := x.Dim(0)
	k := 1
	if perChunk > 0 && members > 1 && n > 0 {
		k = max(min(n, members), (n-1)/perChunk+1)
	}
	if k == 1 {
		return []chunk{{lo: 0, hi: n, x: x}}
	}
	cols := x.Len() / n
	out := make([]chunk, k)
	for i := range out {
		lo, hi := i*n/k, (i+1)*n/k
		out[i] = chunk{lo: lo, hi: hi, x: tensor.FromSlice(x.Data()[lo*cols:hi*cols], hi-lo, cols)}
	}
	return out
}

// validate runs the eval-mode pass over the validation rows on the team and
// returns its output, which Fit keeps for the whole fit.
func (s *stepper) validate() *tensor.Tensor {
	s.team.run(len(s.chunks), s.evalChunk)
	if len(s.chunks) == 1 {
		return s.chunks[0].out
	}
	cols := s.chunks[0].out.Dim(1)
	s.valOut = tensor.Reuse2D(s.valOut, s.chunks[len(s.chunks)-1].hi, cols)
	for _, c := range s.chunks {
		copy(s.valOut.Data()[c.lo*cols:], c.out.Data())
	}
	return s.valOut
}

// evalOne runs validation chunk i through its slots.
func (s *stepper) evalOne(i int) {
	c := &s.chunks[i]
	c.out = s.model.forwardEval(c.x, c.slots, &c.out)
}
