package nn

import (
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

func braggLikeNet(rng *rand.Rand) *Model {
	dims := tensor.ConvDims{InC: 1, InH: 15, InW: 15, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2d(rng, dims, 8)
	return Sequential(
		conv, NewLeakyReLU(0.01),
		NewMaxPool2d(8, 15, 15, 3),
		NewLinear(rng, 8*5*5, 64), NewLeakyReLU(0.01),
		NewLinear(rng, 64, 2), NewSigmoid(),
	)
}

func BenchmarkForwardBraggLike(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := braggLikeNet(rng)
	x := tensor.Randn(rng, 1, 32, 225)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func BenchmarkForwardBackwardBraggLike(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := braggLikeNet(rng)
	x := tensor.Randn(rng, 1, 32, 225)
	y := tensor.RandUniform(rng, 0, 1, 32, 2)
	opt := NewAdam(m.Params(), 1e-3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.ZeroGrad()
		pred := m.Forward(x, true)
		_, grad := MSE(pred, y)
		m.Backward(grad)
		opt.Step()
	}
}

func BenchmarkStateDictRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := braggLikeNet(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := m.State().Bytes()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := StateDictFromBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := Sequential(NewLinear(rng, 256, 256))
	opt := NewAdam(m.Params(), 1e-3)
	for _, p := range m.Params() {
		g := p.Grad.Data()
		for i := range g {
			g[i] = 0.01
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step()
	}
}

func BenchmarkMaxPoolTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := NewMaxPool2d(8, 15, 15, 3)
	x := tensor.Randn(rng, 1, 16, 8*15*15)
	g := tensor.Randn(rng, 1, 16, p.OutFeatures())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x, true)
		p.Backward(g)
	}
}

func BenchmarkLeakyReLUTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	r := NewLeakyReLU(0.01)
	x := tensor.Randn(rng, 1, 16, 8*15*15)
	g := tensor.Randn(rng, 1, 16, 8*15*15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Forward(x, true)
		r.Backward(g)
	}
}

// BenchmarkConvBlockTrainStep is BraggNN's front end over a batch of 16:
// conv → LeakyReLU → 3×3 max-pool forward, then back to the conv's weight
// and bias gradients, as a fit's step runs it (the first layer computes no
// input gradient).
func BenchmarkConvBlockTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	conv := NewConv2d(rng, tensor.ConvDims{InC: 1, InH: 15, InW: 15, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8)
	relu, pool := NewLeakyReLU(0.01), NewMaxPool2d(8, 15, 15, 3)
	x := tensor.Randn(rng, 1, 16, 225)
	g := tensor.Randn(rng, 1, 16, pool.OutFeatures())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool.Forward(relu.Forward(conv.Forward(x, true), true), true)
		conv.backward(relu.Backward(pool.Backward(g)), false)
	}
}
