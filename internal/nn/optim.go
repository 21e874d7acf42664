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
	a.step++
	c1 := 1 - math.Pow(a.beta1, float64(a.step))
	c2 := 1 - math.Pow(a.beta2, float64(a.step))
	lrc1, ic2 := a.lr/c1, 1/c2
	eps, decay := a.eps, a.decay
	b1, b2 := a.beta1, a.beta2
	nb1, nb2 := 1-b1, 1-b2
	for i, p := range a.params {
		simd.Adam(p.Value.Data(), a.m[i].Data(), a.v[i].Data(), p.Grad.Data(), decay, b1, nb1, b2, nb2, lrc1, ic2, eps)
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}
