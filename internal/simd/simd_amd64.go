package simd

// hasAVX2 reports whether this CPU runs AVX2 code and its OS saves the YMM
// registers across context switches. It reads CPUID leaf 1 ECX (OSXSAVE
// bit 27, AVX bit 28), then XCR0 (XMM and YMM state, bits 1–2), then CPUID
// leaf 7 EBX (AVX2 bit 5).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0.
func xgetbv() (eax, edx uint32)

// The kernels below are the exported functions' vector prefixes: each
// covers the largest whole number of four-element vectors (AddScaledRows's,
// of o's, over all k rows; Dist8First's, of four-vector groups;
// DotPairs4's, of pairs; MaxPool's, of four-window groups; NonZero's
// returns how many positions it wrote; DotPairs4At's covers every listed
// pair) and leaves the rest to the exported function's Go loop, which has
// already cut every slice to the length that sets the prefix.

//go:noescape
func addScaledRowsAVX2(o, b, c []float64, k, stride int)

//go:noescape
func dotPairs4AVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64)

//go:noescape
func dotPairs4AtAVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64, pairs []int) int

//go:noescape
func leakyAVX2(dst, x, g []float64, alpha float64)

//go:noescape
func maxPoolAVX2(dst []float64, at []int, x []float64, base, offs []int, last int) int

//go:noescape
func nonZeroAVX2(idx []int, x []float64) int

//go:noescape
func adamAVX2(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64)

//go:noescape
func dist8FirstAVX2(q *[8]float64, slab []float64, bound float64) int
