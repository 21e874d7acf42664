package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fairdms/internal/tensor"
)

// Conv2d is a 2-D convolution over (batch, C*H*W) inputs using im2col +
// matrix multiply. Weights have shape (outC, inC*KH*KW).
type Conv2d struct {
	Dims tensor.ConvDims
	OutC int
	w, b *Param

	// Train-mode state: the batch's column matrices (one colRows×colCols
	// block per sample, kept for Backward), the output and input-gradient
	// workspaces, and one sample's column gradient.
	lastN   int
	cols    []float64
	dcol    []float64
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
		c.lastN = n
		for i := 0; i < n; i++ {
			c.forwardSample(x.Row(i), c.cols[i*colLen:(i+1)*colLen], out.Row(i))
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
// (outC × colRows) · (colRows × colCols).
func (c *Conv2d) forwardSample(img, col, orow []float64) {
	colRows, colCols := c.colShape()
	tensor.Im2Col(img, c.Dims, col)
	for oc, bias := range c.b.Value.Data() {
		ch := orow[oc*colCols : (oc+1)*colCols]
		for j := range ch {
			ch[j] = bias
		}
	}
	tensor.MatMulInto(orow, c.w.Value.Data(), col, c.OutC, colRows, colCols, true)
}

// Backward accumulates weight/bias gradients and returns the input gradient.
// Samples run in order and their products land directly in the gradient
// accumulators, so the sums are the same at any GOMAXPROCS.
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
	w, dw, db := c.w.Value.Data(), c.w.Grad.Data(), c.b.Grad.Data()
	for i := 0; i < n; i++ {
		g := grad.Row(i) // outC × colCols
		// dW += g · colᵀ ; db += row sums of g ; dCol = Wᵀ · g
		tensor.MatMulTransBInto(dw, g, c.cols[i*colLen:(i+1)*colLen], c.OutC, colCols, colRows, true)
		for oc := range db {
			s := 0.0
			for _, v := range g[oc*colCols : (oc+1)*colCols] {
				s += v
			}
			db[oc] += s
		}
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

// Params returns the kernel and bias parameters.
func (c *Conv2d) Params() []*Param { return []*Param{c.w, c.b} }

func (c *Conv2d) replica() Layer {
	return &Conv2d{Dims: c.Dims, OutC: c.OutC, w: c.w.replica(), b: c.b.replica()}
}

// MaxPool2d is a 2-D max pooling layer over (batch, C*H*W) inputs.
type MaxPool2d struct {
	C, H, W int
	Size    int // pooling window and stride (non-overlapping)

	// window holds the offsets of a window's Size² inputs from its top-left
	// corner, row by row, so one flat loop visits a window.
	window []int

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
	return &MaxPool2d{C: c, H: h, W: w, Size: size, window: window}
}

// OutFeatures returns the flattened pooled width.
func (p *MaxPool2d) OutFeatures() int { return p.C * (p.H / p.Size) * (p.W / p.Size) }

// Forward takes the max over each window; a train-mode pass also remembers
// the argmax positions and runs on the caller, an eval-mode pass splits the
// samples across workers by work.
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
			p.poolSample(x.Row(i), out.Row(i), p.lastArg[i*of:(i+1)*of])
		}
		return out
	}
	tensor.ParallelWork(n, n*in, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.poolSample(x.Row(i), out.Row(i), nil)
		}
	})
	return out
}

// poolSample writes one sample's window maxima into orow and, when arg is
// not nil, the input position each came from (the first, on a tie). A NaN
// never replaces the running maximum, and a NaN first in its window stays.
//
// The select has no data-dependent branch: the sign of a trained network's
// activations is close to a coin flip to the branch predictor. The running
// maximum is kept as its bits, so both updates are integer moves, and the
// compiler (go1.24, amd64; check with -gcflags=-S) emits UCOMISD and two
// CMOVQHI for the if.
func (p *MaxPool2d) poolSample(xrow, orow []float64, arg []int) {
	oh, ow := p.H/p.Size, p.W/p.Size
	span := p.window[len(p.window)-1] + 1
	o := 0
	for c := 0; c < p.C; c++ {
		for y := 0; y < oh; y++ {
			corner := c*p.H*p.W + y*p.Size*p.W
			for z := 0; z < ow; z++ {
				win := xrow[corner : corner+span]
				best, bestAt := math.Float64bits(win[0]), 0
				for _, off := range p.window[1:] {
					v := win[off]
					vb := math.Float64bits(v)
					if v > math.Float64frombits(best) {
						best, bestAt = vb, off
					}
				}
				orow[o] = math.Float64frombits(best)
				if arg != nil {
					arg[o] = corner + bestAt
				}
				o++
				corner += p.Size
			}
		}
	}
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
	return &MaxPool2d{C: p.C, H: p.H, W: p.W, Size: p.Size, window: p.window}
}
