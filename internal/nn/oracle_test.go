package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// The oracle is the implementation the layers had before they owned
// workspaces, kept here in its plainest form: a fresh tensor out of every
// call, a column matrix, a product and a gradient shard per sample,
// triple-loop products, activations through a closure. The tests below hold
// the layers to it — outputs, input gradients and parameter gradients —
// across geometries and across a run of differently sized batches.

func refMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := tensor.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func refIm2Col(img []float64, d tensor.ConvDims) *tensor.Tensor {
	col := tensor.New(d.InC*d.KH*d.KW, d.OutH()*d.OutW())
	cols := col.Data()
	idx := 0
	for c := 0; c < d.InC; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for oh := 0; oh < d.OutH(); oh++ {
					for ow := 0; ow < d.OutW(); ow++ {
						ih, iw := oh*d.Stride+kh-d.Pad, ow*d.Stride+kw-d.Pad
						if ih >= 0 && ih < d.InH && iw >= 0 && iw < d.InW {
							cols[idx] = img[c*d.InH*d.InW+ih*d.InW+iw]
						}
						idx++
					}
				}
			}
		}
	}
	return col
}

func refCol2Im(col *tensor.Tensor, d tensor.ConvDims, img []float64) {
	cols := col.Data()
	idx := 0
	for c := 0; c < d.InC; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for oh := 0; oh < d.OutH(); oh++ {
					for ow := 0; ow < d.OutW(); ow++ {
						ih, iw := oh*d.Stride+kh-d.Pad, ow*d.Stride+kw-d.Pad
						if ih >= 0 && ih < d.InH && iw >= 0 && iw < d.InW {
							img[c*d.InH*d.InW+ih*d.InW+iw] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// refBackward is the second half of a reference stage: refForward returns a
// layer's output and the refBackward that turns the output gradient into the
// input gradient and the gradients of the layer's parameters (in Params
// order), all freshly allocated.
type refBackward func(grad *tensor.Tensor) (dx *tensor.Tensor, dparams []*tensor.Tensor)

func refForward(l Layer, x *tensor.Tensor) (*tensor.Tensor, refBackward) {
	switch l := l.(type) {
	case *Conv2d:
		return refConv(l, x)
	case *Linear:
		out := tensor.AddRowVector(refMatMul(x, l.w.Value), l.b.Value)
		return out, func(g *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
			dw := refMatMul(tensor.Transpose(x), g)
			return refMatMul(g, tensor.Transpose(l.w.Value)), []*tensor.Tensor{dw, tensor.SumRows(g)}
		}
	case *ReLU:
		return refActivation(x, func(v float64) float64 { return math.Max(v, 0) },
			func(v, _ float64) float64 {
				if v > 0 {
					return 1
				}
				return 0
			})
	case *LeakyReLU:
		a := l.Alpha
		return refActivation(x, func(v float64) float64 {
			if v > 0 {
				return v
			}
			return a * v
		}, func(v, _ float64) float64 {
			if v > 0 {
				return 1
			}
			return a
		})
	case *Sigmoid:
		return refActivation(x, func(v float64) float64 { return 1 / (1 + math.Exp(-v)) },
			func(_, y float64) float64 { return y * (1 - y) })
	case *Tanh:
		return refActivation(x, math.Tanh, func(_, y float64) float64 { return 1 - y*y })
	case *MaxPool2d:
		return refPool(l, x)
	case *Dropout:
		// The mask is the layer's own draw; the oracle checks it is applied
		// to the activations and to the gradient, not how it is drawn.
		if l.lastMask == nil {
			return x, func(g *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) { return g, nil }
		}
		mask := tensor.FromSlice(append([]float64(nil), l.lastMask...), x.Shape()...)
		return tensor.Mul(x, mask), func(g *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
			return tensor.Mul(g, mask), nil
		}
	}
	panic(fmt.Sprintf("no reference for %T", l))
}

func refActivation(x *tensor.Tensor, f func(float64) float64, slope func(x, y float64) float64) (*tensor.Tensor, refBackward) {
	y := tensor.Apply(x, f)
	return y, func(g *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
		dx := tensor.New(g.Shape()...)
		for i, gv := range g.Data() {
			dx.Data()[i] = gv * slope(x.Data()[i], y.Data()[i])
		}
		return dx, nil
	}
}

func refConv(c *Conv2d, x *tensor.Tensor) (*tensor.Tensor, refBackward) {
	n := x.Dim(0)
	colCols := c.Dims.OutH() * c.Dims.OutW()
	out := tensor.New(n, c.OutFeatures())
	cols := make([]*tensor.Tensor, n)
	for i := 0; i < n; i++ {
		cols[i] = refIm2Col(x.Row(i), c.Dims)
		y := refMatMul(c.w.Value, cols[i])
		for oc := 0; oc < c.OutC; oc++ {
			for j := 0; j < colCols; j++ {
				out.Row(i)[oc*colCols+j] = y.At(oc, j) + c.b.Value.Data()[oc]
			}
		}
	}
	return out, func(grad *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
		dx := tensor.New(n, c.InFeatures())
		dw := tensor.New(c.w.Value.Shape()...)
		db := tensor.New(c.OutC)
		for i := 0; i < n; i++ {
			g := tensor.FromSlice(grad.Row(i), c.OutC, colCols)
			tensor.AddInPlace(dw, refMatMul(g, tensor.Transpose(cols[i])))
			for oc := 0; oc < c.OutC; oc++ {
				for j := 0; j < colCols; j++ {
					db.Data()[oc] += g.At(oc, j)
				}
			}
			refCol2Im(refMatMul(tensor.Transpose(c.w.Value), g), c.Dims, dx.Row(i))
		}
		return dx, []*tensor.Tensor{dw, db}
	}
}

func refPool(p *MaxPool2d, x *tensor.Tensor) (*tensor.Tensor, refBackward) {
	n := x.Dim(0)
	oh, ow := p.H/p.Size, p.W/p.Size
	out := tensor.New(n, p.OutFeatures())
	arg := make([]int, n*p.OutFeatures())
	for i := 0; i < n; i++ {
		for c := 0; c < p.C; c++ {
			for y := 0; y < oh; y++ {
				for z := 0; z < ow; z++ {
					bestAt := -1
					for dy := 0; dy < p.Size; dy++ {
						for dz := 0; dz < p.Size; dz++ {
							at := c*p.H*p.W + (y*p.Size+dy)*p.W + z*p.Size + dz
							if bestAt < 0 || x.Row(i)[at] > x.Row(i)[bestAt] {
								bestAt = at
							}
						}
					}
					o := c*oh*ow + y*ow + z
					out.Row(i)[o] = x.Row(i)[bestAt]
					arg[i*p.OutFeatures()+o] = bestAt
				}
			}
		}
	}
	return out, func(g *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
		dx := tensor.New(n, p.C*p.H*p.W)
		for i := 0; i < n; i++ {
			for j, gv := range g.Row(i) {
				dx.Row(i)[arg[i*p.OutFeatures()+j]] += gv
			}
		}
		return dx, nil
	}
}

// closeTo fails the test unless got matches want to tol relative to want's
// largest magnitude.
func closeTo(t *testing.T, what string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	scale := 0.0
	for _, v := range want.Data() {
		scale = math.Max(scale, math.Abs(v))
	}
	for i, w := range want.Data() {
		if d := math.Abs(got.Data()[i] - w); !(d <= tol*scale) {
			t.Fatalf("%s[%d] = %g, want %g (off by %g)", what, i, got.Data()[i], w, d)
		}
	}
}

// checkStepAgainstOracle runs one train-mode forward and backward of model
// on (x, gradOut → MSE against y) and the same through the oracle, and
// compares every layer's output, every layer's input gradient and every
// parameter gradient (the model's are zeroed first).
func checkStepAgainstOracle(t *testing.T, what string, model *Model, x, y *tensor.Tensor) {
	t.Helper()
	const tol = 1e-12
	model.ZeroGrad()
	layers := model.Layers()

	// The model's forward runs first so a Dropout has drawn its mask by the
	// time the oracle asks for it; its layer outputs are compared as the
	// oracle catches up, before any later call can reuse a workspace.
	outs := make([]*tensor.Tensor, len(layers))
	h := x
	for i, l := range layers {
		h = l.Forward(h, true)
		outs[i] = h
	}
	backs := make([]refBackward, len(layers))
	ref := x
	for i, l := range layers {
		ref, backs[i] = refForward(l, ref)
		closeTo(t, fmt.Sprintf("%s: layer %d (%T) output", what, i, l), outs[i], ref, tol)
	}

	_, grad := MSE(h, y)
	refGrad := grad.Clone()
	for i := len(layers) - 1; i >= 0; i-- {
		grad = layers[i].Backward(grad)
		var dparams []*tensor.Tensor
		refGrad, dparams = backs[i](refGrad)
		closeTo(t, fmt.Sprintf("%s: layer %d (%T) input gradient", what, i, layers[i]), grad, refGrad, tol)
		for pi, p := range layers[i].Params() {
			closeTo(t, fmt.Sprintf("%s: layer %d %s gradient", what, i, p.Name), p.Grad, dparams[pi], tol)
		}
	}
}

// TestLayersMatchOracleAcrossGeometries covers what the numeric gradient
// checks do not: multi-channel input, stride 2, no padding, 1×1 and
// non-square outputs, pooling windows 2 and 3, batches of 1, 7, 16 and 33.
func TestLayersMatchOracleAcrossGeometries(t *testing.T) {
	type geometry struct {
		dims tensor.ConvDims
		outC int
		pool int // 0 = none
	}
	for gi, g := range []geometry{
		{tensor.ConvDims{InC: 1, InH: 15, InW: 15, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8, 3},
		{tensor.ConvDims{InC: 3, InH: 9, InW: 7, KH: 3, KW: 3, Stride: 2, Pad: 0}, 4, 0},  // 4×3 output
		{tensor.ConvDims{InC: 2, InH: 8, InW: 10, KH: 3, KW: 2, Stride: 2, Pad: 1}, 5, 2}, // 4×6 output
		{tensor.ConvDims{InC: 2, InH: 4, InW: 4, KH: 4, KW: 4, Stride: 1, Pad: 0}, 6, 0},  // 1×1 output
		{tensor.ConvDims{InC: 4, InH: 6, InW: 10, KH: 1, KW: 1, Stride: 1, Pad: 0}, 3, 2},
	} {
		for _, batch := range []int{1, 7, 16, 33} {
			rng := rand.New(rand.NewSource(int64(100*gi + batch)))
			conv := NewConv2d(rng, g.dims, g.outC)
			layers := []Layer{conv, NewLeakyReLU(0.05)}
			width := conv.OutFeatures()
			if g.pool > 0 {
				pool := NewMaxPool2d(g.outC, g.dims.OutH(), g.dims.OutW(), g.pool)
				layers = append(layers, pool)
				width = pool.OutFeatures()
			}
			layers = append(layers,
				NewLinear(rng, width, 11), NewReLU(),
				NewDropout(rng, 0.2),
				NewLinear(rng, 11, 5), NewTanh(),
				NewLinear(rng, 5, 2), NewSigmoid(),
			)
			model := Sequential(layers...)
			x := tensor.Randn(rng, 1, batch, conv.InFeatures())
			y := tensor.RandUniform(rng, 0, 1, batch, 2)
			checkStepAgainstOracle(t, fmt.Sprintf("geometry %d batch %d", gi, batch), model, x, y)
		}
	}
}

// TestWorkspacesSurviveChangingBatchSizes trains one BraggNN-shaped model on
// batches of 16, 16, 10, 16 and 33 rows — an epoch's short last batch, the
// next epoch's full one, then growth — checking every step against the
// oracle. A workspace that kept a stale row, was not re-zeroed where the
// layer accumulates, or was not re-shaped fails here, where a single-step
// check cannot.
func TestWorkspacesSurviveChangingBatchSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := tensor.ConvDims{InC: 1, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 1, Pad: 1}
	model := Sequential(
		NewConv2d(rng, dims, 4), NewLeakyReLU(0.01),
		NewMaxPool2d(4, 9, 9, 3),
		NewLinear(rng, 36, 16), NewLeakyReLU(0.01),
		NewDropout(rng, 0.1),
		NewLinear(rng, 16, 8), NewReLU(),
		NewLinear(rng, 8, 2), NewSigmoid(),
	)
	opt := NewAdam(model.Params(), 1e-2)
	for step, batch := range []int{16, 16, 10, 16, 33, 1} {
		x := tensor.Randn(rng, 1, batch, 81)
		y := tensor.RandUniform(rng, 0, 1, batch, 2)
		checkStepAgainstOracle(t, fmt.Sprintf("step %d (batch %d)", step, batch), model, x, y)
		opt.Step() // move the weights so no step repeats the last
	}
}

// TestEvalForwardMatchesTrainForward: the two modes differ in where the
// output lives and what is remembered, never in the numbers (Dropout aside,
// which is why this model has none).
func TestEvalForwardMatchesTrainForward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	model := braggLikeNet(rng)
	x := tensor.Randn(rng, 1, 70, 225) // enough rows for the eval conv to fork
	train := model.Forward(x, true).Clone()
	eval := model.Forward(x, false)
	for i, v := range train.Data() {
		if math.Float64bits(v) != math.Float64bits(eval.Data()[i]) {
			t.Fatalf("output %d: train %g, eval %g", i, v, eval.Data()[i])
		}
	}
}

// TestBackwardChecksItsGradient: a gradient of the wrong batch or width is
// a programming error every layer reports, as is Backward before Forward.
func TestBackwardChecksItsGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dims := tensor.ConvDims{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, mk := range []func() (Layer, int){
		func() (Layer, int) { return NewConv2d(rng, dims, 2), 32 },
		func() (Layer, int) { return NewMaxPool2d(1, 4, 4, 2), 4 },
		func() (Layer, int) { return NewLinear(rng, 16, 3), 3 },
		func() (Layer, int) { return NewReLU(), 16 },
		func() (Layer, int) { return NewLeakyReLU(0.1), 16 },
		func() (Layer, int) { return NewSigmoid(), 16 },
		func() (Layer, int) { return NewTanh(), 16 },
	} {
		l, width := mk()
		mustPanic(fmt.Sprintf("%T.Backward before Forward", l), func() { l.Backward(tensor.New(3, width)) })
		l.Forward(tensor.Randn(rng, 1, 3, 16), true)
		l.Backward(tensor.New(3, width)) // the right shape passes
		mustPanic(fmt.Sprintf("%T.Backward with a short batch", l), func() { l.Backward(tensor.New(2, width)) })
		mustPanic(fmt.Sprintf("%T.Backward with a wrong width", l), func() { l.Backward(tensor.New(3, width+1)) })
	}
}

// refAdamStep is the textbook per-element loop Adam.Step is derived from.
func refAdamStep(w, g, m, v []float64, step int, lr, beta1, beta2, eps, decay float64) {
	c1 := 1 - math.Pow(beta1, float64(step))
	c2 := 1 - math.Pow(beta2, float64(step))
	for j := range w {
		gj := g[j] + decay*w[j]
		m[j] = beta1*m[j] + (1-beta1)*gj
		v[j] = beta2*v[j] + (1-beta2)*gj*gj
		mhat := m[j] / c1
		vhat := v[j] / c2
		w[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}

// TestAdamStepMatchesTextbookLoop: Adam.Step multiplies by lr/c1 and 1/c2
// where the textbook loop divides by c1 and c2. The moments must stay the
// same bits. The update u = lr·m̂/(√v̂+ε) may not: each of the two forms
// rounds at most six times on the way to u (the bias corrections, the
// products, the square root, the sum with ε and the quotient), so the two
// agree within 12 units of round-off (2⁻⁵³) of |u| — the bound below takes
// 16 — and the subtraction from w adds at most one ulp of the new weight.
// Each step starts both from the optimizer's weights, so an error cannot
// compound across steps into something the bound does not describe.
func TestAdamStepMatchesTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const lr, beta1, beta2, eps, decay = 3e-3, 0.9, 0.999, 1e-8, 1e-4
	const roundoff = 0x1p-53
	p := newParam("w", tensor.Randn(rng, 1, 37, 5))
	opt := NewAdamFull([]*Param{p}, lr, beta1, beta2, eps, decay)
	m, v := make([]float64, p.Value.Len()), make([]float64, p.Value.Len())
	for step := 1; step <= 25; step++ {
		g := tensor.Randn(rng, 0.1, 37, 5)
		copy(p.Grad.Data(), g.Data())
		w := append([]float64(nil), p.Value.Data()...)
		before := append([]float64(nil), w...)
		opt.Step()
		refAdamStep(w, g.Data(), m, v, step, lr, beta1, beta2, eps, decay)
		for j, want := range w {
			if math.Float64bits(opt.m[0].Data()[j]) != math.Float64bits(m[j]) ||
				math.Float64bits(opt.v[0].Data()[j]) != math.Float64bits(v[j]) {
				t.Fatalf("step %d element %d: the moments diverged from the textbook loop", step, j)
			}
			got := p.Value.Data()[j]
			ulp := math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want)
			if bound := 16*roundoff*math.Abs(before[j]-want) + ulp; math.Abs(got-want) > bound {
				t.Fatalf("step %d element %d: weight %g, textbook %g (off by %g, bound %g)", step, j, got, want, math.Abs(got-want), bound)
			}
		}
	}
}
