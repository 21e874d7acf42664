package tensor

import (
	"fmt"

	"fairdms/internal/simd"
)

// The three matrix products of a dense layer and its backward pass — a·b,
// aᵀ·b and a·bᵀ — over row-major slices, written into a destination the
// caller owns. Each has one kernel; MatMul allocates a result and calls
// the same code. The kernels allocate nothing,
// keep at least four independent sums in flight, and hand contiguous blocks
// of destination rows to goroutines only when forkWorkers says the product
// is worth a fork. Every destination element is summed by one goroutine in
// an order fixed by the shapes, so a product is bit-identical at any
// GOMAXPROCS.
//
// The inner loops are internal/simd's kernels, which run in AVX2 where the
// CPU has it and give the Go loop's bits either way. a·b and aᵀ·b share
// one row update, simd.AddScaledRows, called once per destination row. a·bᵀ
// is dot-product shaped, so its kernel (simd.DotPairs4) keeps one running
// sum per lane rather than splitting a dot along the inner dimension, which
// would reorder its sums and change the weights a fit produces. The loops
// here convert every product with float64(...) before adding it, as simd's
// do, so no GOARCH fuses one.

// MatMulInto computes dst = a·b, or dst += a·b when acc is set, for
// row-major a (m×k), b (k×n) and dst (m×n).
func MatMulInto(dst, a, b []float64, m, k, n int, acc bool) {
	gemmCheck("MatMulInto", dst, a, b, m, k, n)
	gemm(kernelNN, dst, a, b, m, k, n, acc)
}

// MatMulTransAInto computes dst = aᵀ·b, or dst += aᵀ·b when acc is set, for
// row-major a (k×m), b (k×n) and dst (m×n).
func MatMulTransAInto(dst, a, b []float64, m, k, n int, acc bool) {
	gemmCheck("MatMulTransAInto", dst, a, b, m, k, n)
	gemm(kernelTN, dst, a, b, m, k, n, acc)
}

// MatMulTransBInto computes dst = a·bᵀ, or dst += a·bᵀ when acc is set, for
// row-major a (m×k), b (n×k) and dst (m×n).
func MatMulTransBInto(dst, a, b []float64, m, k, n int, acc bool) {
	gemmCheck("MatMulTransBInto", dst, a, b, m, k, n)
	gemm(kernelNT, dst, a, b, m, k, n, acc)
}

func gemmCheck(op string, dst, a, b []float64, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(dst) != m*n || len(a) != m*k || len(b) != k*n {
		panic(fmt.Sprintf("tensor: %s operand lengths %d, %d, %d do not fit m=%d k=%d n=%d",
			op, len(dst), len(a), len(b), m, k, n))
	}
}

// gemmKernel adds rows [lo, hi) of one of the three products into dst.
type gemmKernel func(dst, a, b []float64, m, k, n, lo, hi int)

// gemm is the one driver behind the three products: clear unless
// accumulating, then run the kernel over all rows, on the caller's
// goroutine or in row blocks. Kernels are top-level functions, not
// closures, so the unforked call allocates nothing.
func gemm(kern gemmKernel, dst, a, b []float64, m, k, n int, acc bool) {
	if !acc {
		clear(dst)
	}
	w := forkWorkers(m, m*k*n)
	if w == 1 {
		kern(dst, a, b, m, k, n, 0, m)
		return
	}
	forkRows(m, w, func(lo, hi int) { kern(dst, a, b, m, k, n, lo, hi) })
}

// kernelNN: dst[i] += Σ_p a[i][p]·b[p].
func kernelNN(dst, a, b []float64, m, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		simd.AddScaledRows(dst[i*n:(i+1)*n], b, a[i*k:], k, 1)
	}
}

// kernelTN: dst[i] += Σ_p a[p][i]·b[p], the same row update as kernelNN
// with the coefficients read down a column of a.
func kernelTN(dst, a, b []float64, m, k, n, lo, hi int) {
	if k == 0 { // a has no column to start at, and the update adds nothing
		return
	}
	for i := lo; i < hi; i++ {
		simd.AddScaledRows(dst[i*n:(i+1)*n], b, a[i:], k, m)
	}
}

// kernelNT: dst[i][j] += a[i]·b[j], four rows of b against one row of a at
// a time, so each element of a is loaded once per four products, and two
// steps of the inner dimension per pass, so eight sums are in flight — a
// floating-point add takes four cycles, and four sums alone would wait on
// it. simd.DotPairs4 runs the pairs; this loop adds an odd last step and
// finishes the sums.
func kernelNT(dst, a, b []float64, m, k, n, lo, hi int) {
	var sums [8]float64
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k : (j+1)*k][:len(arow)]
			b1 := b[(j+1)*k : (j+2)*k : (j+2)*k][:len(arow)]
			b2 := b[(j+2)*k : (j+3)*k : (j+3)*k][:len(arow)]
			b3 := b[(j+3)*k : (j+4)*k : (j+4)*k][:len(arow)]
			simd.DotPairs4(&sums, arow, b0, b1, b2, b3)
			s0, t0, s1, t1, s2, t2, s3, t3 := sums[0], sums[1], sums[2], sums[3], sums[4], sums[5], sums[6], sums[7]
			if len(arow)%2 == 1 {
				p := len(arow) - 1
				a0 := arow[p]
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
		for ; j < n; j++ {
			orow[j] += dot4(arow, b[j*k:(j+1)*k:(j+1)*k])
		}
	}
}

// dot4 is the inner product of two equal-length slices as four interleaved
// partial sums, combined pairwise at the end.
func dot4(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(x); p += 4 {
		s0 += float64(x[p] * y[p])
		s1 += float64(x[p+1] * y[p+1])
		s2 += float64(x[p+2] * y[p+2])
		s3 += float64(x[p+3] * y[p+3])
	}
	for ; p < len(x); p++ {
		s0 += float64(x[p] * y[p])
	}
	return (s0 + s1) + (s2 + s3)
}
