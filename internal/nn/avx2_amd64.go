package nn

// leakyAVX2 runs LeakyReLU's sign-select-multiply,
// dst[i] = g[i]·(x[i] > 0 ? 1 : alpha), four elements per instruction over
// the largest multiple-of-four prefix of dst. x and g must be at least as
// long as dst; the forward pass gives x as g.
//
//go:noescape
func leakyAVX2(dst, x, g []float64, alpha float64)

// adamAVX2 runs Adam.Step's element update four elements per instruction
// over the largest multiple-of-four prefix of w, in the Go loop's
// association. m, v and g must be at least as long as w.
//
//go:noescape
func adamAVX2(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64)
