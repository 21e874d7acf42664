//go:build !amd64

package tensor

// HasAVX2 reports whether this CPU runs AVX2 code: never off amd64, where
// the portable Go loops are the only path.
func HasAVX2() bool { return false }

func addRows4AVX2(orow, b0, b1, b2, b3 []float64, c0, c1, c2, c3 float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func addRowAVX2(orow, b []float64, c float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func dotPairs4AVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}
