package nn

import (
	"math"

	"fairdms/internal/simd"
	"fairdms/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	params []*Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	decay  float64
	step   int
	m, v   []*tensor.Tensor
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999.
func NewAdam(params []*Param, lr float64) *Adam {
	return NewAdamFull(params, lr, 0.9, 0.999, 1e-8, 0)
}

// NewAdamFull returns an Adam optimizer with every hyperparameter explicit.
func NewAdamFull(params []*Param, lr, beta1, beta2, eps, weightDecay float64) *Adam {
	m := make([]*tensor.Tensor, len(params))
	v := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		m[i] = tensor.New(p.Value.Shape()...)
		v[i] = tensor.New(p.Value.Shape()...)
	}
	return &Adam{params: params, lr: lr, beta1: beta1, beta2: beta2, eps: eps, decay: weightDecay, m: m, v: v}
}

// Step applies one bias-corrected Adam update. Everything that does not
// depend on the element is computed once, outside the loops, including the
// two bias corrections: lr/c1 and 1/c2 turn the element's two divisions
// into multiplications, w - m·(lr/c1)/(√(v·(1/c2))+ε). That rounds
// differently from the textbook lr·(m/c1)/(√(v/c2)+ε): the moments are
// the same bits, the update differs by a few ulps of its own size. The
// element update is simd.Adam.
func (a *Adam) Step() {
	u := a.next()
	for i, p := range a.params {
		a.apply(u, i, 0, p.Value.Len())
	}
}

// adamStep is one step's bias corrections, lr/c1 and 1/c2.
type adamStep struct{ lrc1, ic2 float64 }

// next counts a step and returns its bias corrections, which apply then
// uses on every element of the step.
func (a *Adam) next() adamStep {
	a.step++
	c1 := 1 - math.Pow(a.beta1, float64(a.step))
	c2 := 1 - math.Pow(a.beta2, float64(a.step))
	return adamStep{lrc1: a.lr / c1, ic2: 1 / c2}
}

// apply runs step u's update over elements [lo, hi) of parameter i. The
// update is per element, so how a parameter is cut into ranges does not
// change its bits, and ranges may run at once on different goroutines.
func (a *Adam) apply(u adamStep, i, lo, hi int) {
	p := a.params[i]
	b1, b2 := a.beta1, a.beta2
	simd.Adam(p.Value.Data()[lo:hi], a.m[i].Data()[lo:hi], a.v[i].Data()[lo:hi], p.Grad.Data()[lo:hi],
		a.decay, b1, 1-b1, b2, 1-b2, u.lrc1, u.ic2, a.eps)
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}
