package tensor

import "fmt"

// binaryCheck panics unless a and b share a shape.
func binaryCheck(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	binaryCheck("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	binaryCheck("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns a * b element-wise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	binaryCheck("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// AddInPlace accumulates b into a and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	binaryCheck("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// Scale returns alpha * a.
func Scale(a *Tensor, alpha float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = alpha * a.data[i]
	}
	return out
}

// ScaleInPlace multiplies every element by alpha and returns a.
func ScaleInPlace(a *Tensor, alpha float64) *Tensor {
	for i := range a.data {
		a.data[i] *= alpha
	}
	return a
}

// Apply returns f applied element-wise.
func Apply(a *Tensor, f func(float64) float64) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Max returns the maximum element and its flat index.
// It panics on an empty tensor.
func (t *Tensor) Max() (float64, int) {
	if len(t.data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, at := t.data[0], 0
	for i, v := range t.data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// MatMul returns the matrix product of two 2-D tensors, a (m×k) by b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic(fmt.Sprintf("tensor: MatMul needs 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	gemm(kernelNN, out.data, a.data, b.data, m, k, n, true)
	return out
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose on %d-dimensional tensor", a.NDim()))
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// AddRowVector adds a length-n vector to every row of an m×n matrix.
func AddRowVector(a, v *Tensor) *Tensor {
	if a.NDim() != 2 || v.Len() != a.shape[1] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v + %v", a.shape, v.shape))
	}
	out := New(a.shape...)
	n := a.shape[1]
	for i := 0; i < a.shape[0]; i++ {
		row := a.data[i*n : (i+1)*n]
		orow := out.data[i*n : (i+1)*n]
		for j := range row {
			orow[j] = row[j] + v.data[j]
		}
	}
	return out
}

// SumRows returns the column-wise sums of an m×n matrix as a length-n tensor.
func SumRows(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic("tensor: SumRows needs a 2-D tensor")
	}
	n := a.shape[1]
	out := New(n)
	for i := 0; i < a.shape[0]; i++ {
		row := a.data[i*n : (i+1)*n]
		for j := range row {
			out.data[j] += row[j]
		}
	}
	return out
}

// SquaredDistance returns the squared Euclidean distance between two
// equal-length float64 slices. It is the hot inner loop of k-means.
func SquaredDistance(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}
