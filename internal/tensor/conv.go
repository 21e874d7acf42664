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
// the columns outside it read padding. A kernel column that lies wholly
// right of the image (kw ≥ InW + Pad) gives the empty range [0, 0).
func (c ConvDims) validCols(kw int) (lo, hi int) {
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	if c.Pad > kw {
		lo = ceilDiv(c.Pad-kw, c.Stride)
	}
	hi = max(min(c.OutW(), ceilDiv(c.InW+c.Pad-kw, c.Stride)), 0)
	return min(lo, hi), hi
}

// Im2Col unrolls one image (C×H×W, flat) into a (C*KH*KW) × (OutH*OutW)
// column matrix so convolution becomes a matrix multiply. The result is
// written into cols, which must have length C*KH*KW*OutH*OutW.
//
// A stride-1 convolution whose output is as wide as its image (a "same"
// convolution, as every conv the models build is) fills each column row
// with one copy (see sameWidthRow); other geometries go element by element.
func Im2Col(img []float64, d ConvDims, cols []float64) {
	outH, outW := d.OutH(), d.OutW()
	idx := 0
	for c := 0; c < d.InC; c++ {
		ch := img[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				lo, hi := d.validCols(kw)
				if d.Stride == 1 && outW == d.InW {
					sameWidthRow(cols[idx:idx+outH*outW], ch, d, kh, kw, lo, hi)
					idx += outH * outW
					continue
				}
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
					base := ih*d.InW + kw - d.Pad
					for ow := lo; ow < hi; ow++ {
						row[ow] = ch[base+ow*d.Stride]
					}
				}
			}
		}
	}
}

// sameWidthRow fills the column row of kernel position (kh, kw) for one
// channel ch of a stride-1 convolution whose output is as wide as its image.
// Output position p then reads ch[p+shift], shift = (kh−Pad)·W + kw−Pad,
// so the output rows that read the image take one copy, cut to the
// channel; their columns outside [lo, hi), which read padding (or, in the
// copy, the neighbouring image row), are zeroed after it, a column at a
// time, since they are a column or two.
func sameWidthRow(row, ch []float64, d ConvDims, kh, kw, lo, hi int) {
	w, outH := d.InW, d.OutH()
	ohLo := min(max(d.Pad-kh, 0), outH)
	ohHi := max(min(d.InH+d.Pad-kh, outH), ohLo)
	clear(row[:ohLo*w])
	clear(row[ohHi*w:])
	shift := (kh-d.Pad)*w + kw - d.Pad
	if pLo, pHi := max(ohLo*w, -shift), min(ohHi*w, len(ch)-shift); pLo < pHi {
		copy(row[pLo:pHi], ch[pLo+shift:pHi+shift])
	}
	for ow := range w {
		if ow >= lo && ow < hi {
			continue
		}
		for q := ohLo*w + ow; q < ohHi*w; q += w {
			row[q] = 0
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
