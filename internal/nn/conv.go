package nn

import (
	"fmt"
	"math/rand"

	"fairdms/internal/simd"
	"fairdms/internal/tensor"
)

// Conv2d is a 2-D convolution over (batch, C*H*W) inputs using im2col +
// matrix multiply. Weights have shape (outC, inC*KH*KW).
type Conv2d struct {
	Dims tensor.ConvDims
	OutC int
	w, b *Param

	// Train-mode state: the batch's column matrices (one colRows×colCols
	// block per sample, kept for Backward) and whether each sample's image
	// is finite, the output and input-gradient workspaces, one sample's
	// column gradient, and Backward's list of a channel's non-zero gradient
	// columns.
	lastN   int
	cols    []float64
	finite  []bool
	dcol    []float64
	nz      []int
	out, dx *tensor.Tensor
}

// NewConv2d returns a convolution layer for the given geometry.
func NewConv2d(rng *rand.Rand, dims tensor.ConvDims, outC int) *Conv2d {
	dims.Validate()
	fanIn := dims.InC * dims.KH * dims.KW
	w := tensor.New(outC, fanIn)
	heInit(rng, w, fanIn)
	return &Conv2d{
		Dims: dims,
		OutC: outC,
		w:    newParam(fmt.Sprintf("conv_%dc%dk%d_w", outC, dims.InC, dims.KH), w),
		b:    newParam(fmt.Sprintf("conv_%dc%dk%d_b", outC, dims.InC, dims.KH), tensor.New(outC)),
	}
}

// InFeatures returns the expected flattened input width (C*H*W).
func (c *Conv2d) InFeatures() int { return c.Dims.InC * c.Dims.InH * c.Dims.InW }

// OutFeatures returns the flattened output width (outC*outH*outW).
func (c *Conv2d) OutFeatures() int { return c.OutC * c.Dims.OutH() * c.Dims.OutW() }

// colShape returns the per-sample column matrix shape: inC*KH*KW rows by
// outH*outW columns.
func (c *Conv2d) colShape() (rows, cols int) {
	return c.Dims.InC * c.Dims.KH * c.Dims.KW, c.Dims.OutH() * c.Dims.OutW()
}

// Forward convolves each batch sample. In train mode the samples run in
// order on the caller and their column matrices stay in the layer for
// Backward; in eval mode nothing is kept, the samples are split across
// workers by work, and each worker unrolls into one scratch matrix of its
// own.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return c.forward(x, train, own(&c.out, train))
}

func (c *Conv2d) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	checkBatch("Conv2d", x, c.InFeatures())
	n := x.Dim(0)
	colRows, colCols := c.colShape()
	colLen := colRows * colCols
	out := output(ws, n, c.OutFeatures())
	if train {
		c.cols = grown(c.cols, n*colLen)
		c.finite = grown(c.finite, n)
		c.lastN = n
		for i := 0; i < n; i++ {
			c.forwardSample(x.Row(i), c.cols[i*colLen:(i+1)*colLen], out.Row(i))
			c.finite[i] = allFinite(x.Row(i))
		}
		return out
	}
	tensor.ParallelWork(n, n*c.OutC*colLen, func(lo, hi int) {
		col := make([]float64, colLen)
		for i := lo; i < hi; i++ {
			c.forwardSample(x.Row(i), col, out.Row(i))
		}
	})
	return out
}

// forwardSample unrolls one image into col and writes its output row: each
// channel starts as its bias and W·col accumulates onto it,
// (outC × colRows) · (colRows × colCols). The bias is stored four at a
// time, which halves the fill's cost.
func (c *Conv2d) forwardSample(img, col, orow []float64) {
	colRows, colCols := c.colShape()
	tensor.Im2Col(img, c.Dims, col)
	for oc, bias := range c.b.Value.Data() {
		ch := orow[oc*colCols : (oc+1)*colCols]
		j := 0
		for ; j+4 <= len(ch); j += 4 {
			ch[j], ch[j+1], ch[j+2], ch[j+3] = bias, bias, bias, bias
		}
		for ; j < len(ch); j++ {
			ch[j] = bias
		}
	}
	tensor.MatMulInto(orow, c.w.Value.Data(), col, c.OutC, colRows, colCols, true)
}

// Backward accumulates weight/bias gradients and returns the input gradient.
// Samples run in order and their products land directly in the gradient
// accumulators, so the sums are the same at any GOMAXPROCS. The weight and
// bias gradients read only the non-zero gradient columns where that gives
// the same bits (see addParamGrads).
func (c *Conv2d) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

func (c *Conv2d) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	if c.out == nil {
		panic("nn: Conv2d.Backward before Forward")
	}
	n := c.lastN
	checkGrad("Conv2d", grad, n, c.OutFeatures())
	colRows, colCols := c.colShape()
	colLen := colRows * colCols
	if needInput {
		c.dcol = grown(c.dcol, colLen)
		c.dx = tensor.Reuse2D(c.dx, n, c.InFeatures())
		clear(c.dx.Data())
	}
	c.nz = grown(c.nz, 2*colCols) // a channel's non-zero columns, then sparseDots's scratch
	w := c.w.Value.Data()
	for i := 0; i < n; i++ {
		g := grad.Row(i) // outC × colCols
		// dW += g · colᵀ ; db += row sums of g ; dCol = Wᵀ · g
		c.addParamGrads(g, c.cols[i*colLen:(i+1)*colLen], c.finite[i])
		if needInput {
			tensor.MatMulTransAInto(c.dcol, w, g, colRows, c.OutC, colCols, false)
			tensor.Col2Im(c.dcol, c.Dims, c.dx.Row(i))
		}
	}
	if !needInput {
		return nil
	}
	return c.dx
}

// addParamGrads adds one sample's weight gradient g·colᵀ and bias gradient
// (g's row sums) to the accumulators, output channel by output channel, in
// tensor.MatMulTransBInto's bits. After a max-pool most gradient columns
// are zero (8 in 9 behind BraggNN's 3×3 windows), and a channel's sums can
// skip them: each sum starts at +0 and so can never become −0, and adding
// a ±0 product or gradient to it changes nothing. A product is ±0 only
// when its column value is finite (0·Inf is NaN), so a sample whose image
// is not finite, or a channel with more than a quarter of its columns
// non-zero, takes the dense product. Which path runs depends only on the
// data, and both give the same bits.
func (c *Conv2d) addParamGrads(g, col []float64, finite bool) {
	colRows, colCols := c.colShape()
	dw, db := c.w.Grad.Data(), c.b.Grad.Data()
	for oc := range db {
		grow := g[oc*colCols : (oc+1)*colCols]
		dwrow := dw[oc*colRows : (oc+1)*colRows]
		nz := c.nz[:simd.NonZero(c.nz, grow)]
		s := 0.0
		for _, p := range nz {
			s += grow[p]
		}
		db[oc] += s
		if !finite || 4*len(nz) > colCols {
			tensor.MatMulTransBInto(dwrow, grow, col, 1, colCols, colRows, true)
			continue
		}
		sparseDots(dwrow, grow, col, nz, c.nz[colCols:])
	}
}

// sparseDots adds to orow what tensor's a·bᵀ kernel adds for the one row a
// against the len(orow) rows of b (each len(a) long), reading a only where
// the non-zero positions nz (ascending) fall. That kernel runs rows in
// whole groups of four through simd.DotPairs4's pair loop and then an odd
// last step, and the rest through dot4's four-lane loop and its tail; here
// the loops visit only the pairs and the four-element steps that hold a
// listed position, so each lane sees the same non-zero products in the same
// order, and the steps and the combining are the kernel's own. scratch
// must be at least 2·len(nz) long.
func sparseDots(orow, a, b []float64, nz, scratch []int) {
	k := len(a)
	pairs, quads := steps(nz, k, scratch)
	var sums [8]float64
	j := 0
	for ; j+4 <= len(orow); j += 4 {
		b0 := b[j*k : (j+1)*k : (j+1)*k]
		b1 := b[(j+1)*k : (j+2)*k : (j+2)*k]
		b2 := b[(j+2)*k : (j+3)*k : (j+3)*k]
		b3 := b[(j+3)*k : (j+4)*k : (j+4)*k]
		simd.DotPairs4At(&sums, a, b0, b1, b2, b3, pairs)
		s0, t0, s1, t1, s2, t2, s3, t3 := sums[0], sums[1], sums[2], sums[3], sums[4], sums[5], sums[6], sums[7]
		if k%2 == 1 {
			p := k - 1
			a0 := a[p]
			s0 += float64(a0 * b0[p])
			s1 += float64(a0 * b1[p])
			s2 += float64(a0 * b2[p])
			s3 += float64(a0 * b3[p])
		}
		orow[j] += s0 + t0
		orow[j+1] += s1 + t1
		orow[j+2] += s2 + t2
		orow[j+3] += s3 + t3
	}
	for ; j < len(orow); j++ {
		orow[j] += quadDot(a, b[j*k:(j+1)*k], quads)
	}
}

// steps lists, ascending and once each, the pairs (p &^ 1) and the
// four-element steps (p &^ 3) that hold a position of nz, leaving out the
// ones that are not whole inside a's k elements: the odd last step and
// dot4's tail, which sparseDots runs as the kernel does. It has no
// data-dependent branch.
func steps(nz []int, k int, buf []int) (pairs, quads []int) {
	pairs, quads = buf[:len(nz)], buf[len(nz):2*len(nz)]
	np, nq, lastPair, lastQuad := 0, 0, -1, -1
	for _, p := range nz {
		pair, quad := p&^1, p&^3
		pairs[np], quads[nq] = pair, quad
		np += differ(pair, lastPair)
		nq += differ(quad, lastQuad)
		lastPair, lastQuad = pair, quad
	}
	for np > 0 && pairs[np-1]+2 > k {
		np--
	}
	for nq > 0 && quads[nq-1]+4 > k {
		nq--
	}
	return pairs[:np], quads[:nq]
}

// differ is 1 when x ≠ y and 0 otherwise, without a jump.
func differ(x, y int) int {
	if x != y {
		return 1
	}
	return 0
}

// quadDot is tensor's dot4 with its four-lane loop over the listed steps
// (p, …, p+3) only: the lanes, the tail past the last whole step (into the
// first lane) and the pairwise combining are dot4's.
func quadDot(x, y []float64, quads []int) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	for _, p := range quads {
		x0, x1, x2, x3 := x[p], x[p+1], x[p+2], x[p+3]
		s0 += float64(x0 * y[p])
		s1 += float64(x1 * y[p+1])
		s2 += float64(x2 * y[p+2])
		s3 += float64(x3 * y[p+3])
	}
	for p := len(x) &^ 3; p < len(x); p++ {
		s0 += float64(x[p] * y[p])
	}
	return (s0 + s1) + (s2 + s3)
}

// allFinite reports whether every element of s is finite: v−v is 0 for a
// finite v and NaN for ±Inf and NaN.
func allFinite(s []float64) bool {
	for _, v := range s {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Params returns the kernel and bias parameters.
func (c *Conv2d) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2d) replica() Layer {
	return &Conv2d{Dims: c.Dims, OutC: c.OutC, w: c.w.replica(), b: c.b.replica()}
}

// MaxPool2d is a 2-D max pooling layer over (batch, C*H*W) inputs.
type MaxPool2d struct {
	C, H, W int
	Size    int // pooling window and stride (non-overlapping)

	// corners holds each output's window corner in a sample's input, in
	// output order, and window the offsets of a window's Size² inputs from
	// its corner, row by row: simd.MaxPool's operands.
	corners, window []int

	lastArg []int // per output, the input position of its max, for routing gradients
	lastN   int   // batch size of the last train-mode Forward
	out, dx *tensor.Tensor
}

// NewMaxPool2d returns a non-overlapping max-pool of the given window size.
func NewMaxPool2d(c, h, w, size int) *MaxPool2d {
	if size < 1 || h%size != 0 || w%size != 0 {
		panic(fmt.Sprintf("nn: MaxPool2d window %d must evenly divide %dx%d", size, h, w))
	}
	window := make([]int, 0, size*size)
	for dy := 0; dy < size; dy++ {
		for dz := 0; dz < size; dz++ {
			window = append(window, dy*w+dz)
		}
	}
	corners := make([]int, 0, c*(h/size)*(w/size))
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y += size {
			for z := 0; z < w; z += size {
				corners = append(corners, ch*h*w+y*w+z)
			}
		}
	}
	return &MaxPool2d{C: c, H: h, W: w, Size: size, corners: corners, window: window}
}

// OutFeatures returns the flattened pooled width.
func (p *MaxPool2d) OutFeatures() int { return p.C * (p.H / p.Size) * (p.W / p.Size) }

// Forward takes the max over each window with simd.MaxPool: the first
// maximum wins a tie, a NaN never replaces the running maximum and a NaN
// first in its window stays. A train-mode pass also remembers the argmax
// positions and runs on the caller, an eval-mode pass splits the samples
// across workers by work.
func (p *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return p.forward(x, train, own(&p.out, train))
}

func (p *MaxPool2d) forward(x *tensor.Tensor, train bool, ws **tensor.Tensor) *tensor.Tensor {
	in, of := p.C*p.H*p.W, p.OutFeatures()
	checkBatch("MaxPool2d", x, in)
	n := x.Dim(0)
	out := output(ws, n, of)
	if train {
		p.lastArg = grown(p.lastArg, n*of)
		p.lastN = n
		for i := 0; i < n; i++ {
			simd.MaxPool(out.Row(i), p.lastArg[i*of:(i+1)*of], x.Row(i), p.corners, p.window)
		}
		return out
	}
	tensor.ParallelWork(n, n*in, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			simd.MaxPool(out.Row(i), nil, x.Row(i), p.corners, p.window)
		}
	})
	return out
}

// Backward routes each gradient to the position that produced the max.
func (p *MaxPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.out == nil {
		panic("nn: MaxPool2d.Backward before Forward")
	}
	of := p.OutFeatures()
	checkGrad("MaxPool2d", grad, p.lastN, of)
	p.dx = tensor.Reuse2D(p.dx, p.lastN, p.C*p.H*p.W)
	clear(p.dx.Data())
	for i := 0; i < p.lastN; i++ {
		drow := p.dx.Row(i)
		arg := p.lastArg[i*of : (i+1)*of]
		for j, g := range grad.Row(i) {
			drow[arg[j]] += g
		}
	}
	return p.dx
}

// Params returns nil: pooling has no parameters.
func (p *MaxPool2d) Params() []*Param { return nil }

func (p *MaxPool2d) replica() Layer {
	return &MaxPool2d{C: p.C, H: p.H, W: p.W, Size: p.Size, corners: p.corners, window: p.window}
}
