package nn

import (
	"math"

	"fairdms/internal/simd"
	"fairdms/internal/tensor"
)

// Optimizer updates model parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched.
	Step()
	// ZeroGrad clears all tracked gradients.
	ZeroGrad()
	// SetLR changes the learning rate (fine-tuning uses a smaller one).
	SetLR(lr float64)
	// LR reports the current learning rate.
	LR() float64
}

// SGD is stochastic gradient descent with optional momentum and weight decay.
type SGD struct {
	params   []*Param
	lr       float64
	momentum float64
	decay    float64
	velocity []*tensor.Tensor
}

// NewSGD returns an SGD optimizer over params.
func NewSGD(params []*Param, lr, momentum, weightDecay float64) *SGD {
	v := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		v[i] = tensor.New(p.Value.Shape()...)
	}
	return &SGD{params: params, lr: lr, momentum: momentum, decay: weightDecay, velocity: v}
}

// Step applies v = μv - lr·(g + λw); w += v.
func (s *SGD) Step() {
	for i, p := range s.params {
		vd := s.velocity[i].Data()
		wd := p.Value.Data()
		gd := p.Grad.Data()
		for j := range wd {
			g := gd[j] + float64(s.decay*wd[j])
			vd[j] = float64(s.momentum*vd[j]) - float64(s.lr*g)
			wd[j] += vd[j]
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (s *SGD) ZeroGrad() {
	for _, p := range s.params {
		p.ZeroGrad()
	}
}

// SetLR changes the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR reports the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

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

// SetLR changes the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }
