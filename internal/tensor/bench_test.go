package tensor

import (
	"math/rand"
	"testing"
)

func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, n, n)
	y := Randn(rng, 1, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
	b.SetBytes(int64(8 * n * n))
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

// benchProduct times one destination-writing kernel at 128×128×128 — large
// enough to fork at GOMAXPROCS > 1 — and at the shape it has in a BraggNN
// training step (batch 16), which stays on the caller.
func benchProduct(b *testing.B, into func(dst, a, b []float64, m, k, n int, acc bool), m, k, n int) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, m, k).Data()
	y := Randn(rng, 1, k, n).Data()
	dst := make([]float64, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		into(dst, x, y, m, k, n, false)
	}
	b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkMatMulTransB128(b *testing.B)      { benchProduct(b, MatMulTransBInto, 128, 128, 128) }
func BenchmarkMatMulTransA128(b *testing.B)      { benchProduct(b, MatMulTransAInto, 128, 128, 128) }
func BenchmarkMatMulLinearFwd(b *testing.B)      { benchProduct(b, MatMulInto, 16, 200, 64) }
func BenchmarkMatMulTransALinearDW(b *testing.B) { benchProduct(b, MatMulTransAInto, 200, 16, 64) }
func BenchmarkMatMulTransBLinearDX(b *testing.B) { benchProduct(b, MatMulTransBInto, 16, 64, 200) }
func BenchmarkMatMulTransBConvDW(b *testing.B)   { benchProduct(b, MatMulTransBInto, 8, 225, 9) }

func BenchmarkIm2Col(b *testing.B) {
	d := ConvDims{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := make([]float64, d.InC*d.InH*d.InW)
	cols := make([]float64, d.InC*d.KH*d.KW*d.OutH()*d.OutW())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, d, cols)
	}
}

func BenchmarkSquaredDistance(b *testing.B) {
	x := make([]float64, 128)
	y := make([]float64, 128)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 1.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredDistance(x, y)
	}
}

func BenchmarkParallelFor(b *testing.B) {
	out := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(len(out), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				out[j] = float64(j) * 1.0001
			}
		})
	}
}
