package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fairdms/internal/simd"
	"fairdms/internal/tensor"
)

// Linear is a fully connected layer: y = xW + b with W of shape (in, out).
type Linear struct {
	In, Out int
	w, b    *Param

	lastX   *tensor.Tensor
	out, dx *tensor.Tensor // train-mode workspaces
}

// NewLinear returns a Linear layer with He-initialized weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	w := tensor.New(in, out)
	heInit(rng, w, in)
	return &Linear{
		In:  in,
		Out: out,
		w:   newParam(fmt.Sprintf("linear_%dx%d_w", in, out), w),
		b:   newParam(fmt.Sprintf("linear_%dx%d_b", in, out), tensor.New(out)),
	}
}

// Forward computes xW + b: every output row starts as the bias and the
// product accumulates onto it. The product forks across row blocks by its
// work (tensor.ForkWork), which is what keeps a ≥ 64-row embedding batch
// row-parallel and a small training batch on the caller.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(x, train, own(&l.out, train))
}

func (l *Linear) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	checkBatch("Linear", x, l.In)
	n := x.Dim(0)
	out := output(ws, n, l.Out)
	bias := l.b.Value.Data()
	for i := 0; i < n; i++ {
		copy(out.Row(i), bias)
	}
	tensor.MatMulInto(out.Data(), x.Data(), l.w.Value.Data(), n, l.In, l.Out, true)
	if train {
		l.lastX = x
	}
	return out
}

// Backward accumulates dW = xᵀ·g, db = Σg and returns dX = g·Wᵀ.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor { return l.backward(grad, true) }

func (l *Linear) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	if l.lastX == nil {
		panic("nn: Linear.Backward before Forward")
	}
	n := l.lastX.Dim(0)
	checkGrad("Linear", grad, n, l.Out)
	gd := grad.Data()
	tensor.MatMulTransAInto(l.w.Grad.Data(), l.lastX.Data(), gd, l.In, n, l.Out, true)
	db := l.b.Grad.Data()
	for i := 0; i < n; i++ {
		for j, g := range gd[i*l.Out : (i+1)*l.Out] {
			db[j] += g
		}
	}
	if !needInput {
		return nil
	}
	l.dx = tensor.Reuse2D(l.dx, n, l.In)
	tensor.MatMulTransBInto(l.dx.Data(), gd, l.w.Value.Data(), n, l.Out, l.In, false)
	return l.dx
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }

func (l *Linear) replica() Layer {
	return &Linear{In: l.In, Out: l.Out, w: l.w.replica(), b: l.b.replica()}
}

// activation is the state the element-wise layers share: what Backward needs
// from the last train-mode Forward (the input for the rectifiers, the output
// for Sigmoid and Tanh) and the two workspaces.
type activation struct {
	last    *tensor.Tensor
	out, dx *tensor.Tensor
}

// begin returns x's data and the tensor to write the activation into.
func (a *activation) begin(layer string, x *tensor.Tensor, ws **tensor.Tensor) ([]float64, *tensor.Tensor) {
	if x.NDim() != 2 {
		panic(fmt.Sprintf("nn: %s expects (batch, features) input, got shape %v", layer, x.Shape()))
	}
	return x.Data(), output(ws, x.Dim(0), x.Dim(1))
}

// backward returns the remembered tensor's data, grad's data and the
// workspace the input gradient goes into.
func (a *activation) backward(layer string, grad *tensor.Tensor) (last, g, dx []float64) {
	if a.last == nil {
		panic("nn: " + layer + ".Backward before Forward")
	}
	checkGrad(layer, grad, a.last.Dim(0), a.last.Dim(1))
	a.dx = tensor.Reuse2D(a.dx, grad.Dim(0), grad.Dim(1))
	return a.last.Data(), grad.Data(), a.dx.Data()
}

// ReLU is the rectified linear activation, max(0, x).
type ReLU struct{ activation }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward clamps negatives to zero.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return r.forward(x, train, own(&r.out, train))
}

func (r *ReLU) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	xd, out := r.begin("ReLU", x, ws)
	od := out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	if train {
		r.last = x
	}
	return out
}

// Backward passes gradient only where the input was positive.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	xd, gd, od := r.backward("ReLU", grad)
	for i, g := range gd {
		if xd[i] > 0 {
			od[i] = g
		} else {
			od[i] = 0
		}
	}
	return r.dx
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

func (r *ReLU) replica() Layer { return NewReLU() }

// LeakyReLU is max(x, alpha*x), BraggNN's activation.
type LeakyReLU struct {
	Alpha float64
	activation
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies the leaky rectifier.
func (r *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return r.forward(x, train, own(&r.out, train))
}

func (r *LeakyReLU) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	xd, out := r.begin("LeakyReLU", x, ws)
	simd.Leaky(out.Data(), xd, xd, r.Alpha)
	if train {
		r.last = x
	}
	return out
}

// Backward scales gradient by 1 or alpha depending on input sign.
func (r *LeakyReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	xd, gd, od := r.backward("LeakyReLU", grad)
	simd.Leaky(od, xd, gd, r.Alpha)
	return r.dx
}

// Params returns nil: LeakyReLU has no parameters.
func (r *LeakyReLU) Params() []*Param { return nil }

func (r *LeakyReLU) replica() Layer { return NewLeakyReLU(r.Alpha) }

// Sigmoid is the logistic activation 1/(1+e^-x).
type Sigmoid struct{ activation }

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return s.forward(x, train, own(&s.out, train))
}

func (s *Sigmoid) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	xd, out := s.begin("Sigmoid", x, ws)
	od := out.Data()
	for i, v := range xd {
		od[i] = 1 / (1 + math.Exp(-v))
	}
	if train {
		s.last = out
	}
	return out
}

// Backward multiplies by y(1-y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	yd, gd, od := s.backward("Sigmoid", grad)
	for i, g := range gd {
		od[i] = g * yd[i] * (1 - yd[i])
	}
	return s.dx
}

// Params returns nil: Sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }

func (s *Sigmoid) replica() Layer { return NewSigmoid() }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{ activation }

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return t.forward(x, train, own(&t.out, train))
}

func (t *Tanh) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	xd, out := t.begin("Tanh", x, ws)
	od := out.Data()
	for i, v := range xd {
		od[i] = math.Tanh(v)
	}
	if train {
		t.last = out
	}
	return out
}

// Backward multiplies by 1 - y².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	yd, gd, od := t.backward("Tanh", grad)
	for i, g := range gd {
		od[i] = g * (1 - float64(yd[i]*yd[i]))
	}
	return t.dx
}

// Params returns nil: Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

func (t *Tanh) replica() Layer { return NewTanh() }

// Dropout randomly zeroes activations with probability P during training,
// scaling survivors by 1/(1-P) (inverted dropout). When MC is true the mask
// is also applied at inference time, which is what Monte-Carlo dropout
// uncertainty quantification (Gal & Ghahramani; paper Fig. 2) requires.
type Dropout struct {
	P   float64
	MC  bool
	rng *rand.Rand

	lastMask []float64 // mask of the last masked Forward; nil after an identity one
	mask     []float64 // the mask buffer lastMask points at, kept across identity passes
	out, dx  *tensor.Tensor
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %g outside [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Forward applies the random mask in training (or MC) mode and is the
// identity otherwise. The plain eval path (train=false, MC off) writes no
// layer state, so it is safe to run concurrently; MC mode draws from the
// layer's RNG and records its mask, and is not.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return d.forward(x, train, own(&d.out, train))
}

func (d *Dropout) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	if (!train && !d.MC) || d.P == 0 {
		if train || d.MC {
			d.lastMask = nil
		}
		return x
	}
	if x.NDim() != 2 {
		panic(fmt.Sprintf("nn: Dropout expects (batch, features) input, got shape %v", x.Shape()))
	}
	keep := 1 - d.P
	scale := 1 / keep
	out := output(ws, x.Dim(0), x.Dim(1))
	d.mask = grown(d.mask, x.Len())
	mask := d.mask
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if d.rng.Float64() < keep {
			mask[i] = scale
			od[i] = v * scale
		} else {
			mask[i] = 0
			od[i] = 0
		}
	}
	d.lastMask = mask
	return out
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastMask == nil {
		return grad
	}
	if grad.NDim() != 2 || grad.Len() != len(d.lastMask) {
		panic(fmt.Sprintf("nn: Dropout.Backward gradient shape %v does not match the %d masked activations", grad.Shape(), len(d.lastMask)))
	}
	d.dx = tensor.Reuse2D(d.dx, grad.Dim(0), grad.Dim(1))
	od := d.dx.Data()
	for i, g := range grad.Data() {
		od[i] = g * d.lastMask[i]
	}
	return d.dx
}

// Params returns nil: Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// replica's generator is a placeholder: Fit seeds it from d's before every
// step the replica trains in.
func (d *Dropout) replica() Layer {
	return &Dropout{P: d.P, MC: d.MC, rng: rand.New(rand.NewSource(0))}
}

// Identity passes input and gradient through unchanged. It is useful as a
// structural placeholder (e.g. a pooling slot that a geometry doesn't need).
type Identity struct{}

// NewIdentity returns an Identity layer.
func NewIdentity() *Identity { return &Identity{} }

// Forward returns x unchanged.
func (Identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

func (Identity) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor { return x }

// Backward returns grad unchanged.
func (Identity) Backward(grad *tensor.Tensor) *tensor.Tensor { return grad }

// Params returns nil: Identity has no parameters.
func (Identity) Params() []*Param { return nil }

func (Identity) replica() Layer { return NewIdentity() }

// SetMC toggles Monte-Carlo mode on every Dropout layer in the model and
// returns how many layers were affected.
func SetMC(m *Model, on bool) int {
	n := 0
	for _, l := range m.Layers() {
		if d, ok := l.(*Dropout); ok {
			d.MC = on
			n++
		}
	}
	return n
}
