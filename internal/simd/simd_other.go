//go:build !amd64

package simd

// hasAVX2 is false off amd64: the Go loops are the only path.
func hasAVX2() bool { return false }

func addScaledRowsAVX2(o, b, c []float64, k, stride int)          { panic(offAMD64) }
func dotPairs4AVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64) { panic(offAMD64) }
func dotPairs4AtAVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64, pairs []int) int {
	panic(offAMD64)
}
func leakyAVX2(dst, x, g []float64, alpha float64) { panic(offAMD64) }
func maxPoolAVX2(dst []float64, at []int, x []float64, base, offs []int, last int) int {
	panic(offAMD64)
}
func nonZeroAVX2(idx []int, x []float64) int { panic(offAMD64) }
func adamAVX2(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64) {
	panic(offAMD64)
}
func dist8FirstAVX2(q *[8]float64, slab []float64, bound float64) int { panic(offAMD64) }

const offAMD64 = "simd: AVX2 kernel called off amd64"
