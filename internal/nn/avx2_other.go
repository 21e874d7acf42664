//go:build !amd64

package nn

func leakyAVX2(dst, x, g []float64, alpha float64) {
	panic("nn: AVX2 kernel called off amd64")
}

func adamAVX2(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64) {
	panic("nn: AVX2 kernel called off amd64")
}
