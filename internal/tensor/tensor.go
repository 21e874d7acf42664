// Package tensor implements dense, row-major float64 tensors with the small
// set of linear-algebra operations the fairDMS neural-network and clustering
// substrates need: element-wise arithmetic, matrix multiplication,
// im2col-based convolution support, reductions, and shape manipulation.
//
// Tensors are deliberately simple: a shape vector and a flat backing slice.
// Operations that cannot fail return tensors; shape violations are programmer
// errors and panic with a descriptive message (they indicate a bug in the
// calling model code, not a runtime condition to handle).
//
// The matrix products live in gemm.go: one destination-writing kernel each
// for a·b, aᵀ·b and a·bᵀ (MatMulInto, MatMulTransAInto, MatMulTransBInto;
// overwrite or accumulate, no allocation), with MatMul as an
// allocate-then-call wrapper. Whether a kernel — or a
// caller's loop, through ParallelWork — runs on several goroutines is
// decided from its work (m·k·n against ForkWork), never from its row count
// alone, and the split is by whole output rows, so results do not depend on
// GOMAXPROCS.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense, row-major array of float64 values.
// The zero value is an empty tensor; use New or the constructors below.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape.
// A tensor with no dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Reuse2D returns a rows×cols tensor for a caller that keeps one buffer
// across calls: t itself, re-shaped over its own storage, when t is 2-D and
// has the capacity, and a new tensor otherwise (t may be nil). The elements
// are unspecified — whatever the last use left there — so the caller
// overwrites or clears them, and anything still holding t sees the new
// shape. A warmed buffer costs no allocation, which is what lets a layer's
// workspace follow a short last batch and grow back.
func Reuse2D(t *Tensor, rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension in shape [%d %d]", rows, cols))
	}
	n := rows * cols
	if t == nil || len(t.shape) != 2 || cap(t.data) < n {
		return New(rows, cols)
	}
	t.shape[0], t.shape[1] = rows, cols
	t.data = t.data[:n]
	return t
}

// Full returns a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, stddev²) using rng.
func Randn(rng *rand.Rand, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * stddev
	}
	return t
}

// RandUniform returns a tensor with elements drawn uniformly from [lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + float64(rng.Float64()*(hi-lo))
	}
	return t
}

// Shape returns the tensor's dimensions. The caller must not modify it.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the flat backing slice in row-major order.
// Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// index converts multi-dimensional indices to a flat offset.
func (t *Tensor) index(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-dimensional tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given indices.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.index(idx...)] }

// Set stores v at the given indices.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.index(idx...)] = v }

// Row returns row i of a 2-D tensor as a slice sharing t's storage.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on %d-dimensional tensor", len(t.shape)))
	}
	c := t.shape[1]
	return t.data[i*c : (i+1)*c]
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 16 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g] n=%d", t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}

// AllClose reports whether every pair of elements differs by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}
