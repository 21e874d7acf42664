package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairdms/internal/tensor"
)

// edgeValues are the inputs where an operation order, a fused multiply-add
// or a select would show: signed zeros, infinities, NaN, subnormals, and
// magnitudes whose products overflow.
var edgeValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1e-310, 1e308, -1e308}

// edgeSlice is n normal draws with each replaced by an edge value with
// probability p.
func edgeSlice(rng *rand.Rand, n int, p float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if rng.Float64() < p {
			s[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return s
}

// sameBits reports whether got and want are the same bits, any NaN equal to
// any NaN, and names the first element that is not.
func sameBits(got, want []float64) error {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return fmt.Errorf("element %d is %x, want %x", i, got[i], want[i])
		}
	}
	return nil
}

// TestLeakyAVX2MatchesPortable holds LeakyReLU, forward (the gradient is
// the input) and backward, on this host's kernel path (AVX2 where the CPU
// has it) to the portable select g·(x > 0 ? 1 : α) spelled out, over
// lengths 1 to 300 and slopes that show a swapped select. internal/simd
// holds the kernel's two paths to each other.
func TestLeakyAVX2MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 3000; trial++ {
		n, p := 1+rng.Intn(300), []float64{0, 0.02, 0.3}[trial%3]
		alpha := []float64{0.01, 0.2, 0, -1.5, 1e308}[trial%5]
		x, g := edgeSlice(rng, n, p), edgeSlice(rng, n, p)
		relu := NewLeakyReLU(alpha)
		out := relu.Forward(tensor.FromSlice(x, 1, n), true)
		dx := relu.Backward(tensor.FromSlice(g, 1, n))
		wantOut, wantDx := make([]float64, n), make([]float64, n)
		for i, v := range x {
			slope := alpha
			if v > 0 {
				slope = 1
			}
			wantOut[i], wantDx[i] = v*slope, g[i]*slope
		}
		if err := sameBits(out.Data(), wantOut); err != nil {
			t.Fatalf("n=%d alpha=%g forward: %v", n, alpha, err)
		}
		if err := sameBits(dx.Data(), wantDx); err != nil {
			t.Fatalf("n=%d alpha=%g backward: %v", n, alpha, err)
		}
	}
}

// TestAdamAVX2MatchesPortable runs three Adam steps on this host's kernel
// path and the portable element update spelled out, from the same weights,
// gradients and moments — edge values in all four, with and without weight
// decay, over parameters of 0 to 300 elements — and holds the weights and
// both moments to the same bits.
func TestAdamAVX2MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const lr, eps = 3e-3, 1e-8
	b1, b2 := 0.9, 0.999 // variables, as in Adam.Step: 1-b1 rounds
	for trial := 0; trial < 1000; trial++ {
		p := []float64{0, 0.02, 0.3}[trial%3]
		decay := []float64{0, 1e-4}[trial%2]
		sizes := []int{rng.Intn(301), rng.Intn(9)}
		params := make([]*Param, len(sizes))
		var w, g, m, v [][]float64
		for i, n := range sizes {
			w, g = append(w, edgeSlice(rng, n, p)), append(g, edgeSlice(rng, n, p))
			m, v = append(m, edgeSlice(rng, n, p)), append(v, edgeSlice(rng, n, p))
			params[i] = &Param{Value: tensor.FromSlice(slices.Clone(w[i]), n), Grad: tensor.FromSlice(g[i], n)}
		}
		opt := NewAdamFull(params, lr, b1, b2, eps, decay)
		for i := range sizes {
			copy(opt.m[i].Data(), m[i])
			copy(opt.v[i].Data(), v[i])
		}
		for step := 1.0; step <= 3; step++ {
			opt.Step()
			lrc1, ic2 := lr/(1-math.Pow(b1, step)), 1/(1-math.Pow(b2, step))
			for i := range sizes {
				for j, wj := range w[i] {
					gj := g[i][j] + float64(decay*wj)
					m[i][j] = float64(b1*m[i][j]) + float64((1-b1)*gj)
					v[i][j] = float64(b2*v[i][j]) + float64((1-b2)*gj*gj)
					w[i][j] = wj - m[i][j]*lrc1/(math.Sqrt(v[i][j]*ic2)+eps)
				}
			}
		}
		for i := range sizes {
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"weight", opt.params[i].Value.Data(), w[i]},
				{"first moment", opt.m[i].Data(), m[i]},
				{"second moment", opt.v[i].Data(), v[i]},
			} {
				if err := sameBits(c.got, c.want); err != nil {
					t.Fatalf("trial %d param %d (%d elements) %s: %v", trial, i, sizes[i], c.what, err)
				}
			}
		}
	}
}

// branchyPool is the plain form of MaxPool2d's window walk: a branch on
// v > best, the first maximum kept on a tie, a NaN never taken. It returns
// the window maxima and the input position of each.
func branchyPool(p *MaxPool2d, xrow []float64) (out []float64, arg []int) {
	for c := 0; c < p.C; c++ {
		for y := 0; y < p.H/p.Size; y++ {
			for z := 0; z < p.W/p.Size; z++ {
				corner := c*p.H*p.W + y*p.Size*p.W + z*p.Size
				best, bestAt := xrow[corner], corner
				for dy := 0; dy < p.Size; dy++ {
					for dz := 0; dz < p.Size; dz++ {
						if at := corner + dy*p.W + dz; xrow[at] > best {
							best, bestAt = xrow[at], at
						}
					}
				}
				out, arg = append(out, best), append(arg, bestAt)
			}
		}
	}
	return out, arg
}

// TestMaxPoolMatchesBranchyOracle holds the layer's select, simd.MaxPool on
// this host's kernel path (AVX2 where the CPU has it), to the branchy walk:
// outputs (train and eval) and argmax bit for bit, and the gradient routed
// to the same positions. Inputs draw from a few values, so windows hold
// ties, -Inf, all-equal windows and NaN both first and later in a window.
// The geometries give whole four-window groups (200, 12, 4) and a tail of
// three (75).
func TestMaxPoolMatchesBranchyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	values := []float64{-2, -1, 0, math.Copysign(0, -1), 1, 1, 3, math.Inf(-1), math.Inf(1), math.NaN()}
	for _, g := range []struct{ c, h, w, size int }{{8, 15, 15, 3}, {2, 4, 6, 2}, {3, 5, 5, 1}, {1, 8, 8, 4}} {
		for _, batch := range []int{1, 7, 16} {
			pool := NewMaxPool2d(g.c, g.h, g.w, g.size)
			x := tensor.New(batch, g.c*g.h*g.w)
			for i, xd := 0, x.Data(); i < len(xd); i++ {
				if rng.Intn(3) == 0 {
					xd[i] = rng.NormFloat64()
				} else {
					xd[i] = values[rng.Intn(len(values))]
				}
			}
			out := pool.Forward(x, true)
			eval := pool.Forward(x, false)
			grad := tensor.Randn(rng, 1, batch, pool.OutFeatures())
			dx := pool.Backward(grad)
			of := pool.OutFeatures()
			for i := 0; i < batch; i++ {
				wantOut, wantArg := branchyPool(pool, x.Row(i))
				what := fmt.Sprintf("%+v batch %d row %d", g, batch, i)
				if err := sameBits(out.Row(i), wantOut); err != nil {
					t.Fatalf("%s: train output %v", what, err)
				}
				if err := sameBits(eval.Row(i), wantOut); err != nil {
					t.Fatalf("%s: eval output %v", what, err)
				}
				if got := pool.lastArg[i*of : (i+1)*of]; !slices.Equal(got, wantArg) {
					t.Fatalf("%s: argmax %v, want %v", what, got, wantArg)
				}
				wantDx := make([]float64, len(x.Row(i)))
				for j, gv := range grad.Row(i) {
					wantDx[wantArg[j]] += gv
				}
				if err := sameBits(dx.Row(i), wantDx); err != nil {
					t.Fatalf("%s: input gradient %v", what, err)
				}
			}
		}
	}
}

// TestMaxPoolWindowRules spells out the rules the oracle test samples, one
// 2×2 window each.
func TestMaxPoolWindowRules(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name   string
		window []float64 // row-major 2×2
		want   float64
		at     int
	}{
		{"first of a tie", []float64{2, 5, 5, 1}, 5, 1},
		{"all equal", []float64{7, 7, 7, 7}, 7, 0},
		{"all -Inf", []float64{-inf, -inf, -inf, -inf}, -inf, 0},
		{"-Inf first", []float64{-inf, -3, -inf, -4}, -3, 1},
		{"NaN first stays", []float64{nan, 5, 7, 1}, nan, 0},
		{"NaN later is skipped", []float64{1, nan, 3, 3}, 3, 2},
		{"+0 before -0", []float64{0, math.Copysign(0, -1), -1, -2}, 0, 0},
		{"-0 before +0", []float64{math.Copysign(0, -1), 0, -1, -2}, math.Copysign(0, -1), 0},
	} {
		pool := NewMaxPool2d(1, 2, 2, 2)
		out := pool.Forward(tensor.FromSlice(c.window, 1, 4), true)
		if err := sameBits(out.Data(), []float64{c.want}); err != nil || pool.lastArg[0] != c.at {
			t.Errorf("%s: max %v at %d, want %v at %d", c.name, out.Data()[0], pool.lastArg[0], c.want, c.at)
		}
	}
}

// TestKernelsAllocateNothing holds LeakyReLU, MaxPool2d and Adam to a
// warmed training step's zero allocations.
func TestKernelsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	x := tensor.Randn(rng, 1, 16, 8*15*15)
	g := tensor.Randn(rng, 1, 16, 8*15*15)
	relu := NewLeakyReLU(0.01)
	pool := NewMaxPool2d(8, 15, 15, 3)
	pg := tensor.Randn(rng, 1, 16, pool.OutFeatures())
	lin := NewLinear(rng, 201, 63)
	opt := NewAdam(lin.Params(), 1e-3)
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"LeakyReLU", func() { relu.Forward(x, true); relu.Backward(g) }},
		{"MaxPool2d", func() { pool.Forward(x, true); pool.Backward(pg) }},
		{"Adam", opt.Step},
	} {
		if got := testing.AllocsPerRun(10, c.f); got != 0 {
			t.Errorf("%s allocates %.0f times per step", c.name, got)
		}
	}
}

// gradPattern fills one sample's outC × (outH·outW) conv-output gradient.
type gradPattern struct {
	name string
	fill func(rng *rand.Rand, g []float64, outC, outH, outW int)
}

// poolShaped keeps one entry per size×size window of each channel's map,
// as a max-pool's backward leaves it, and ±0 everywhere else; windows cut
// by the map's edge keep one too. A kept entry is an edge value with
// probability edge.
func poolShaped(size int, edge float64) func(rng *rand.Rand, g []float64, outC, outH, outW int) {
	return func(rng *rand.Rand, g []float64, outC, outH, outW int) {
		for i := range g {
			g[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
		for c := 0; c < outC; c++ {
			for y := 0; y < outH; y += size {
				for z := 0; z < outW; z += size {
					yy, zz := y+rng.Intn(min(size, outH-y)), z+rng.Intn(min(size, outW-z))
					v := rng.NormFloat64()
					if rng.Float64() < edge {
						v = edgeValues[rng.Intn(len(edgeValues))]
					}
					g[c*outH*outW+yy*outW+zz] = v
				}
			}
		}
	}
}

// TestConvParamGradsMatchDense holds Conv2d's weight and bias gradients to
// the dense product tensor.MatMulTransBInto(g, colᵀ) and the plain row sums
// of g, bit for bit, whichever path a channel takes: rows with no zeros,
// all zeros (+0 and −0), max-pool-shaped 1-in-9 and 1-in-4 rows with ±0
// between, with edge values kept, and with the last three columns set (the
// pair loop's odd last step and dot4's tail), and rows just under and over
// the density at which the sparse path stops. The geometries give every
// number of rows past the last group of four (colRows mod 4 of 1, 2, 0 and
// 3), odd and even column counts, and unpadded ones, whose last rows read
// real pixels at the last columns. A batch of three finite samples runs
// each case, and then a batch of one sample with a NaN and an Inf pixel:
// its columns are not finite, so it must take the dense product, and a
// skipped 0·Inf would show as a missing NaN. (It runs alone because its NaN
// reaches every weight gradient and would hide the other samples' bits.)
func TestConvParamGradsMatchDense(t *testing.T) {
	patterns := []gradPattern{
		{"no zeros", func(rng *rand.Rand, g []float64, _, _, _ int) {
			for i := range g {
				g[i] = rng.NormFloat64()
			}
		}},
		{"all zeros", func(rng *rand.Rand, g []float64, _, _, _ int) {
			for i := range g {
				g[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}},
		{"1 in 9", poolShaped(3, 0)},
		{"1 in 4", poolShaped(2, 0)},
		{"1 in 9, edge values", poolShaped(3, 0.3)},
		{"1 in 9, last three columns", func(rng *rand.Rand, g []float64, outC, outH, outW int) {
			poolShaped(3, 0)(rng, g, outC, outH, outW)
			k := outH * outW
			for c := 1; c <= outC; c++ { // the odd last step and dot4's tail read them
				g[c*k-1], g[c*k-2], g[c*k-3] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			}
		}},
		{"density at and past a quarter", func(rng *rand.Rand, g []float64, outC, outH, outW int) {
			k := outH * outW
			clear(g)
			for c := 0; c < outC; c++ {
				for _, p := range rng.Perm(k)[:k/4+c%2] {
					g[c*k+p] = rng.NormFloat64()
				}
			}
		}},
	}
	rng := rand.New(rand.NewSource(65))
	for _, geo := range []struct {
		dims tensor.ConvDims
		outC int
	}{
		{tensor.ConvDims{InC: 1, InH: 15, InW: 15, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8}, // BraggNN: 9 rows, 225 columns
		{tensor.ConvDims{InC: 2, InH: 9, InW: 9, KH: 3, KW: 3, Stride: 1, Pad: 0}, 3},   // 18 rows, 49 columns
		{tensor.ConvDims{InC: 3, InH: 7, InW: 6, KH: 2, KW: 2, Stride: 1, Pad: 0}, 4},   // 12 rows, 30 columns
		{tensor.ConvDims{InC: 3, InH: 11, InW: 11, KH: 3, KW: 3, Stride: 2, Pad: 0}, 5}, // 27 rows, 25 columns
		{tensor.ConvDims{InC: 1, InH: 9, InW: 11, KH: 3, KW: 3, Stride: 1, Pad: 0}, 2},  // 9 rows, 63 columns
	} {
		d := geo.dims
		colRows, colCols := d.InC*d.KH*d.KW, d.OutH()*d.OutW()
		for i := 0; i < 2*len(patterns); i++ {
			pat, finite := patterns[i/2], i%2 == 0
			batch := 3
			if !finite {
				batch = 1
			}
			conv := NewConv2d(rng, d, geo.outC)
			x := tensor.Randn(rng, 1, batch, conv.InFeatures())
			if !finite {
				xd := x.Data()
				xd[rng.Intn(len(xd))], xd[rng.Intn(len(xd))] = math.NaN(), math.Inf(-1)
			}
			grad := tensor.New(batch, conv.OutFeatures())
			for i := 0; i < batch; i++ {
				pat.fill(rng, grad.Row(i), geo.outC, d.OutH(), d.OutW())
			}
			conv.Forward(x, true)
			for _, p := range conv.Params() {
				p.ZeroGrad()
			}
			conv.backward(grad, false)
			wantDW, wantDB := make([]float64, geo.outC*colRows), make([]float64, geo.outC)
			col := make([]float64, colRows*colCols)
			for i := 0; i < batch; i++ {
				tensor.Im2Col(x.Row(i), d, col)
				g := grad.Row(i)
				tensor.MatMulTransBInto(wantDW, g, col, geo.outC, colCols, colRows, true)
				for oc := range wantDB {
					s := 0.0
					for _, v := range g[oc*colCols : (oc+1)*colCols] {
						s += v
					}
					wantDB[oc] += s
				}
			}
			what := fmt.Sprintf("%+v outC %d, %s, finite %v", d, geo.outC, pat.name, finite)
			for i, f := range conv.finite[:batch] {
				if f != finite {
					t.Fatalf("%s: sample %d finite %v", what, i, f)
				}
			}
			if err := sameBits(conv.w.Grad.Data(), wantDW); err != nil {
				t.Fatalf("%s: weight gradient %v", what, err)
			}
			if err := sameBits(conv.b.Grad.Data(), wantDB); err != nil {
				t.Fatalf("%s: bias gradient %v", what, err)
			}
		}
	}
}
