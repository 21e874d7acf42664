// Package nn is a compact neural-network library over the tensor substrate:
// layers with hand-written backpropagation, the MSE loss and Adam. It stands
// in for the PyTorch stack the fairDMS paper trains BraggNN, CookieNetAE,
// and the self-supervised embedding models with.
//
// The API follows the familiar layer/module shape:
//
//	model := nn.Sequential(
//		nn.NewLinear(rng, 16, 64), nn.NewReLU(),
//		nn.NewLinear(rng, 64, 2),
//	)
//	out := model.Forward(x, true)  // training mode
//	loss, grad := nn.MSE(out, target)
//	model.Backward(grad)
//	opt.Step()
//
// Inputs are 2-D tensors of shape (batch, features); convolutional layers
// interpret the feature axis as flattened C×H×W with geometry given at
// construction. All layers are deterministic given their *rand.Rand, and a
// result never depends on GOMAXPROCS.
//
// # Kernels
//
// The matrix products are internal/tensor's; LeakyReLU's sign-select-
// multiply and Adam's element update are internal/simd's kernels, which run
// in AVX2 where the CPU has it and give their Go loops' bits either way.
// MaxPool2d selects a window's maximum without a branch. Every product that
// feeds an add is rounded first (the float64 conversions), so no compiler
// fuses one. A fit's weights on one GOARCH therefore do not depend on the
// CPU it ran on; across GOARCHes they may still differ where the math
// package does, such as amd64's assembly math.Exp behind Sigmoid
// (docs/ARCHITECTURE.md "Kernels and bits").
//
// # Buffer ownership
//
// One rule covers every layer:
//
//   - A train-mode Forward (train=true) writes its output into a workspace
//     the layer owns and remembers what Backward needs — often just a
//     pointer to its input. The output is valid until that layer's next
//     train-mode Forward, the tensor Backward returns until that layer's
//     next Backward; a caller that wants either for longer clones it.
//     Workspaces grow on demand and are re-shaped, not reallocated, when the
//     batch size changes, so a warmed training step allocates nothing in the
//     layers. One instance therefore trains on one goroutine at a time. Fit
//     spreads a step over several by training on replicas: instances that
//     share the model's parameter values but own their gradients and
//     workspaces (see Fit).
//   - An eval-mode Forward (train=false) returns a tensor the caller owns
//     and writes no layer state, so any number of goroutines may run
//     eval-mode forwards on one shared model (the embedding servers do) —
//     as long as nobody is training or loading weights into that instance.
//     The one exception is a Dropout in Monte-Carlo mode, which draws from
//     the layer's RNG at inference time and must not be shared.
//   - An eval-mode Model.Forward writes every layer's output but the last
//     into a slot borrowed from the tensor scratch pool (tensor.Borrow) for
//     that call alone, and releases the slots before it returns. The tensor
//     it returns is the last layer's caller-owned result — a copy when that
//     layer passes its input through — and is never pooled, so the rule for
//     its caller is the per-layer one above. The slots hold the values the
//     per-layer chain would allocate: every layer overwrites all of its
//     output, whatever a buffer held before. Fit's per-epoch validation
//     pass is the same pass over slots Fit keeps for the whole fit, so what
//     a fit allocates does not depend on the pool.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fairdms/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// newParam allocates a parameter and a matching zero gradient.
func newParam(name string, v *tensor.Tensor) *Param {
	return &Param{Name: name, Value: v, Grad: tensor.New(v.Shape()...)}
}

// replica returns a parameter that shares p's value and has a gradient of
// its own.
func (p *Param) replica() *Param { return newParam(p.Name, p.Value) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	d := p.Grad.Data()
	for i := range d {
		d[i] = 0
	}
}

// Layer is one differentiable stage of a model. A train-mode Forward stores
// whatever Backward needs; Backward consumes the loss gradient w.r.t. the
// layer output and returns the gradient w.r.t. the layer input, accumulating
// parameter gradients along the way.
//
// Implementations follow the package's buffer-ownership rule: the train-mode
// output and the Backward result live in layer-owned workspaces (valid until
// the layer's next train-mode Forward, resp. Backward), while an eval-mode
// Forward returns a tensor the caller owns and writes no layer state.
type Layer interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param

	// forward is Forward writing its output where ws says (see output):
	// Forward passes the layer's own workspace in train mode and nil in
	// eval mode, Model.Forward's eval pass a pooled slot.
	forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor

	// replica returns a layer of the same geometry that shares this one's
	// parameter values but owns its gradients and workspaces.
	replica() Layer
}

// weighted is a layer with parameters, whose forward is a product that
// forks by its work. Its backward with needInput false accumulates the
// parameter gradients, computes no input gradient and returns nil; Backward
// is backward with needInput true.
type weighted interface {
	forking
	backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor
}

// forking is a layer whose eval-mode forward forks across rows once the
// batch's work, rowForkWork per row, reaches tensor.ForkWork. Fit sizes its
// validation chunks, and its training blocks, from it.
type forking interface {
	Layer
	rowForkWork() int
}

// Model is a sequential stack of layers.
type Model struct {
	layers []Layer
}

// Sequential builds a model from layers applied in order.
func Sequential(layers ...Layer) *Model { return &Model{layers: layers} }

// Append adds layers to the end of the model and returns it.
func (m *Model) Append(layers ...Layer) *Model {
	m.layers = append(m.layers, layers...)
	return m
}

// Layers returns the underlying layer slice (not a copy).
func (m *Model) Layers() []Layer { return m.layers }

// replica returns a model of replicas of m's layers.
func (m *Model) replica() *Model {
	layers := make([]Layer, len(m.layers))
	for i, l := range m.layers {
		layers[i] = l.replica()
	}
	return &Model{layers: layers}
}

// Forward runs the input through every layer. An eval-mode pass gives each
// layer but the last a pooled slot for its output (see "Buffer ownership"),
// so a warmed pass allocates its result and little else.
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		for _, l := range m.layers {
			x = l.Forward(x, train)
		}
		return x
	}
	slots := m.evalSlots()
	for i := range slots {
		slots[i] = tensor.Borrow(0, 0)
	}
	out := m.forwardEval(x, slots, nil)
	for _, s := range slots {
		tensor.Release(s)
	}
	return out
}

// evalSlots returns the slots forwardEval needs, all nil.
func (m *Model) evalSlots() []*tensor.Tensor {
	return make([]*tensor.Tensor, max(len(m.layers)-1, 0))
}

// forwardEval is the eval-mode pass with the output of layer i, for every
// layer but the last, in slots[i], re-shaped as that layer needs (a nil
// slot is allocated). The slots are pooled for one Model.Forward, or kept
// by Fit for all of its validation passes. The last layer's output goes to
// *last the same way, copied there if that layer passes its input through;
// with last nil it is the layer's caller-owned result, never a slot.
func (m *Model) forwardEval(x *tensor.Tensor, slots []*tensor.Tensor, last **tensor.Tensor) *tensor.Tensor {
	if len(m.layers) == 0 {
		return x
	}
	in, end := x, len(m.layers)-1
	for i, l := range m.layers[:end] {
		x = l.forward(x, false, &slots[i])
	}
	out := m.layers[end].forward(x, false, last)
	switch {
	case out != x:
	case last != nil: // passed through
		*last = tensor.Reuse2D(*last, x.Dim(0), x.Dim(1))
		copy((*last).Data(), x.Data())
		out = *last
	case x != in: // passed through, and x is a slot
		out = x.Clone()
	}
	return out
}

// Backward propagates the output gradient back through every layer.
func (m *Model) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(m.layers) - 1; i >= 0; i-- {
		grad = m.layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// heInit fills w with Kaiming-He normal initialization for fanIn inputs.
func heInit(rng *rand.Rand, w *tensor.Tensor, fanIn int) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	d := w.Data()
	for i := range d {
		d[i] = rng.NormFloat64() * std
	}
}

// output is where a forward writes: a new tensor the caller owns when ws is
// nil, and otherwise *ws — a layer-owned workspace or a pooled slot —
// re-shaped to rows×cols with stale contents.
func output(ws **tensor.Tensor, rows, cols int) *tensor.Tensor {
	if ws == nil {
		return tensor.New(rows, cols)
	}
	*ws = tensor.Reuse2D(*ws, rows, cols)
	return *ws
}

// own is the ws a per-layer Forward passes its forward: the layer's
// workspace in train mode, nil (a caller-owned result) in eval mode.
func own(ws **tensor.Tensor, train bool) **tensor.Tensor {
	if train {
		return ws
	}
	return nil
}

// grown returns buf with length n for a layer that keeps it across calls,
// reallocating only when the capacity is short; the contents are stale.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// checkGrad panics unless grad is the (rows, features) gradient of the
// output the layer produced in its last train-mode Forward.
func checkGrad(layer string, grad *tensor.Tensor, rows, features int) {
	if grad.NDim() != 2 || grad.Dim(0) != rows || grad.Dim(1) != features {
		panic(fmt.Sprintf("nn: %s.Backward expects a (%d, %d) gradient, got shape %v", layer, rows, features, grad.Shape()))
	}
}

// checkBatch panics unless x is 2-D with the expected feature width.
func checkBatch(layer string, x *tensor.Tensor, features int) {
	if x.NDim() != 2 {
		panic(fmt.Sprintf("nn: %s expects (batch, features) input, got shape %v", layer, x.Shape()))
	}
	if x.Dim(1) != features {
		panic(fmt.Sprintf("nn: %s expects %d features, got %d", layer, features, x.Dim(1)))
	}
}
