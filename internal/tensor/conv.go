package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over NCHW tensors.
type ConvDims struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	Stride        int // common stride for both axes (>= 1)
	Pad           int // symmetric zero padding
}

// OutH returns the output height for the geometry.
func (c ConvDims) OutH() int { return (c.InH+2*c.Pad-c.KH)/c.Stride + 1 }

// OutW returns the output width for the geometry.
func (c ConvDims) OutW() int { return (c.InW+2*c.Pad-c.KW)/c.Stride + 1 }

// Validate panics if the geometry is degenerate.
func (c ConvDims) Validate() {
	if c.Stride < 1 {
		panic(fmt.Sprintf("tensor: conv stride %d < 1", c.Stride))
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields non-positive output", c))
	}
}

// validCols returns the range [lo, hi) of output columns whose input
// column ow*Stride + kw - Pad falls inside the image for kernel column kw;
// the columns outside it read padding.
func (c ConvDims) validCols(kw int) (lo, hi int) {
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	if c.Pad > kw {
		lo = ceilDiv(c.Pad-kw, c.Stride)
	}
	hi = min(c.OutW(), ceilDiv(c.InW+c.Pad-kw, c.Stride))
	return min(lo, hi), hi
}

// Im2Col unrolls one image (C×H×W, flat) into a (C*KH*KW) × (OutH*OutW)
// column matrix so convolution becomes a matrix multiply. The result is
// written into cols, which must have length C*KH*KW*OutH*OutW.
func Im2Col(img []float64, d ConvDims, cols []float64) {
	outH, outW := d.OutH(), d.OutW()
	idx := 0
	for c := 0; c < d.InC; c++ {
		chOff := c * d.InH * d.InW
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				lo, hi := d.validCols(kw)
				for oh := 0; oh < outH; oh++ {
					row := cols[idx : idx+outW]
					idx += outW
					ih := oh*d.Stride + kh - d.Pad
					if ih < 0 || ih >= d.InH {
						clear(row)
						continue
					}
					clear(row[:lo])
					clear(row[hi:])
					base := chOff + ih*d.InW + kw - d.Pad
					for ow := lo; ow < hi; ow++ {
						row[ow] = img[base+ow*d.Stride]
					}
				}
			}
		}
	}
}

// Col2Im scatters a column matrix gradient back into an image gradient,
// accumulating overlapping contributions. img must have length C*H*W and is
// accumulated into (callers zero it first).
func Col2Im(cols []float64, d ConvDims, img []float64) {
	outH, outW := d.OutH(), d.OutW()
	idx := 0
	for c := 0; c < d.InC; c++ {
		chOff := c * d.InH * d.InW
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				lo, hi := d.validCols(kw)
				for oh := 0; oh < outH; oh++ {
					row := cols[idx : idx+outW]
					idx += outW
					ih := oh*d.Stride + kh - d.Pad
					if ih < 0 || ih >= d.InH {
						continue
					}
					base := chOff + ih*d.InW + kw - d.Pad
					for ow := lo; ow < hi; ow++ {
						img[base+ow*d.Stride] += row[ow]
					}
				}
			}
		}
	}
}
