package tensor

// HasAVX2 reports whether this CPU runs AVX2 code and its OS saves the YMM
// registers across context switches. It is the one probe behind every
// assembly kernel in the module (tensor's matrix products, nn's LeakyReLU
// and Adam, vecindex's dim-8 scan); each kernel gives the bits of its
// portable Go loop, so the answer changes speed, never results.
func HasAVX2() bool { return hasAVX2 }

var hasAVX2 = probeAVX2()

// probeAVX2 reads CPUID leaf 1 ECX (OSXSAVE bit 27, AVX bit 28), then
// XCR0 (XMM and YMM state, bits 1–2), then CPUID leaf 7 EBX (AVX2 bit 5).
func probeAVX2() bool {
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

// addRows4AVX2 runs addScaledRows' four-row update,
// orow[j] + (((c0·b0[j] + c1·b1[j]) + c2·b2[j]) + c3·b3[j]), four elements
// per instruction over the largest multiple-of-four prefix of orow. Every
// b must be at least as long as orow.
//
//go:noescape
func addRows4AVX2(orow, b0, b1, b2, b3 []float64, c0, c1, c2, c3 float64)

// addRowAVX2 runs addScaledRows' one-row update, orow[j] + c·b[j], four
// elements per instruction over the largest multiple-of-four prefix of
// orow. b must be at least as long as orow.
//
//go:noescape
func addRowAVX2(orow, b []float64, c float64)

// dotPairs4AVX2 runs kernelNT's paired loop over the largest even prefix of
// a against four rows of b and stores its eight running sums as
// (s0, t0, s1, t1, s2, t2, s3, t3): s_j sums a[p]·b_j[p] over even p and
// t_j over odd p, each in ascending p. Every b must be at least as long as
// a.
//
//go:noescape
func dotPairs4AVX2(sums *[8]float64, a, b0, b1, b2, b3 []float64)
