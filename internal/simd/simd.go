// Package simd holds the module's vector kernels: the row update and the
// paired dots of tensor's matrix products, nn's LeakyReLU, max-pool select
// and Adam element updates, the non-zero scan and paired dots at listed
// pairs of nn's conv gradient, and vecindex's dim-8 distance check. Each is
// one function over float64 slices. The row update takes a whole output row
// and all k rows of b it sums, so a product makes one call per output row
// and the AVX2 path holds the row's sums in registers across k. On amd64
// with AVX2 a kernel runs assembly over the largest whole-vector prefix and
// its Go loop over the rest; everywhere else the Go loop runs over
// everything. Callers never see which path ran.
//
// The contract is bits: the assembly performs the Go loop's operations in
// the Go loop's order, with no fused multiply-add, so both paths give the
// same result for every input, NaN payloads aside. The Go loops convert
// each product that feeds an add with float64(...), which forbids a
// compiler that fuses (arm64's does) from rounding once where the assembly
// rounds twice. This package's tests hold both paths to each other bit for
// bit; docs/ARCHITECTURE.md "Kernels and bits" says which GOARCH give
// which bits.
//
// Every kernel allocates nothing, and every slice argument must be at least
// as long as the one that sets the length (the first), or the call panics;
// AddScaledRows's operands are sized by its k and stride as well.
package simd

import "math"

// useAVX2 selects the assembly; this package's tests turn it off to run the
// portable loops on the same host.
var useAVX2 = hasAVX2()

// AddScaledRows is a matrix product's row update: it adds Σ_p c_p·b_p to o,
// where b_p is row p of b, a row-major k×len(o) matrix, and c_p =
// c[p·stride]. Rows go in blocks of four, o[j] + (((c0·b0[j] + c1·b1[j]) +
// c2·b2[j]) + c3·b3[j]), each product rounded before it is added, then the
// last k mod 4 rows one at a time, o[j] + c·b[j]. A block whose four
// coefficients all equal zero (±0) is skipped, and so is a last row whose
// coefficient does, so a zero coefficient never meets an infinite or NaN
// element of b. The AVX2 path keeps a run of o's elements in registers
// across all k rows and stores it once; every element sees the same
// operations in the same order either way. b must hold k·len(o) elements
// and c at least (k−1)·stride+1, or the call panics.
func AddScaledRows(o, b, c []float64, k, stride int) {
	n := len(o)
	if k <= 0 || n == 0 {
		return
	}
	b = b[:k*n]
	_ = c[(k-1)*stride]
	j := 0
	if useAVX2 {
		addScaledRowsAVX2(o, b, c, k, stride)
		j = n &^ 3
	}
	if j == n {
		return
	}
	// The Go loop covers columns [j, n): all of o, or the AVX2 path's tail.
	o = o[j:]
	off, p := 0, 0
	for ; p+4 <= k; p += 4 {
		c0, c1, c2, c3 := c[off], c[off+stride], c[off+2*stride], c[off+3*stride]
		off += 4 * stride
		if c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0 {
			continue
		}
		b0 := b[p*n+j : (p+1)*n][:len(o)]
		b1 := b[(p+1)*n+j : (p+2)*n][:len(o)]
		b2 := b[(p+2)*n+j : (p+3)*n][:len(o)]
		b3 := b[(p+3)*n+j : (p+4)*n][:len(o)]
		for i := range o {
			o[i] += float64(c0*b0[i]) + float64(c1*b1[i]) + float64(c2*b2[i]) + float64(c3*b3[i])
		}
	}
	for ; p < k; p++ {
		cp := c[off]
		off += stride
		if cp == 0 {
			continue
		}
		bp := b[p*n+j : (p+1)*n][:len(o)]
		for i := range o {
			o[i] += float64(cp * bp[i])
		}
	}
}

// DotPairs4 is the pair loop of a dot product of a against four rows b_j,
// over the largest even prefix of a. It stores eight running sums as
// (s0, t0, s1, t1, s2, t2, s3, t3): s_j sums a[p]·b_j[p] over even p and
// t_j over odd p, each in ascending p and starting from zero. A caller adds
// an odd last step to s_j and combines s_j + t_j.
func DotPairs4(sums *[8]float64, a, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	if useAVX2 {
		dotPairs4AVX2(sums, a, b0, b1, b2, b3)
		return
	}
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for p := 0; p < len(a)-1; p += 2 {
		a0, a1 := a[p], a[p+1]
		s0 += float64(a0 * b0[p])
		t0 += float64(a1 * b0[p+1])
		s1 += float64(a0 * b1[p])
		t1 += float64(a1 * b1[p+1])
		s2 += float64(a0 * b2[p])
		t2 += float64(a1 * b2[p+1])
		s3 += float64(a0 * b3[p])
		t3 += float64(a1 * b3[p+1])
	}
	*sums = [8]float64{s0, t0, s1, t1, s2, t2, s3, t3}
}

// DotPairs4At is DotPairs4's pair loop at the listed pairs only: for each p
// in pairs, in order, s_j adds a[p]·b_j[p] and t_j adds a[p+1]·b_j[p+1],
// from zero, and sums is (s0, t0, s1, t1, s2, t2, s3, t3). A caller that
// lists, ascending, every pair where a is non-zero gets DotPairs4's bits
// when every b_j is finite there: its sums start at +0, so they never turn
// −0, and the products it skips are ±0, which change no such sum. Every p
// must be at least 0 with p+1 inside a, or the call panics.
func DotPairs4At(sums *[8]float64, a, b0, b1, b2, b3 []float64, pairs []int) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	if useAVX2 && len(pairs) > 0 {
		// The assembly stops at the first pair that does not fit in a; the
		// Go loop's indexing checks its own.
		if len(a) < 2 || dotPairs4AtAVX2(sums, a, b0, b1, b2, b3, pairs) != len(pairs) {
			panic("simd: DotPairs4At pair outside a")
		}
		return
	}
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for _, p := range pairs {
		a0, a1 := a[p], a[p+1]
		s0 += float64(a0 * b0[p])
		t0 += float64(a1 * b0[p+1])
		s1 += float64(a0 * b1[p])
		t1 += float64(a1 * b1[p+1])
		s2 += float64(a0 * b2[p])
		t2 += float64(a1 * b2[p+1])
		s3 += float64(a0 * b3[p])
		t3 += float64(a1 * b3[p+1])
	}
	*sums = [8]float64{s0, t0, s1, t1, s2, t2, s3, t3}
}

// positive is 1 for v > 0 and 0 otherwise (NaN included). It compiles to a
// flag-to-register move, so indexing a two-entry slope table with it (the
// &1 at the call site shows the compiler the index is in range) selects a
// rectifier's branch without a jump: the sign of a trained network's
// activations is close to a coin flip to the branch predictor.
func positive(v float64) int {
	if v > 0 {
		return 1
	}
	return 0
}

// Leaky writes dst[i] = g[i]·(x[i] > 0 ? 1 : alpha), LeakyReLU's forward
// pass (g = x) and backward pass alike. A NaN x selects alpha.
func Leaky(dst, x, g []float64, alpha float64) {
	x, g = x[:len(dst)], g[:len(dst)]
	i := 0
	if useAVX2 {
		leakyAVX2(dst, x, g, alpha)
		i = len(dst) &^ 3
	}
	slope := [2]float64{alpha, 1}
	for ; i < len(dst); i++ {
		dst[i] = g[i] * slope[positive(x[i])&1]
	}
}

// MaxPool is a max-pool's select over windows of x: for each window i it
// visits x[base[i]+off] for off in offs, in that order, and writes the
// running maximum to dst[i] and, when at is not nil, base[i] plus the
// offset it came from to at[i]. A later element replaces the running
// maximum only when it is greater, an ordered comparison, so the first
// maximum wins a tie, a NaN never replaces the running maximum and a NaN
// first in its window stays. offs must not be empty, and base, offs and
// every base[i]+off must index x, or the call panics.
//
// The Go loop has no data-dependent branch: the sign of a trained network's
// activations is close to a coin flip to the branch predictor. The running
// maximum is kept as its bits, so both updates are integer moves, and the
// compiler (go1.24, amd64; check with -gcflags=-S) emits UCOMISD and two
// CMOVQHI for the if. The AVX2 path runs four windows at once, one per
// lane.
func MaxPool(dst []float64, at []int, x []float64, base, offs []int) {
	base = base[:len(dst)]
	if at != nil {
		at = at[:len(dst)]
	}
	span := 0
	for _, off := range offs {
		if off < 0 {
			panic("simd: MaxPool offset below zero")
		}
		span = max(span, off+1)
	}
	first, rest := offs[0], offs[1:]
	i := 0
	if useAVX2 && len(dst) >= 4 {
		// The assembly checks each base against the largest one whose
		// window ends inside x; the Go loop's indexing checks its own.
		last := len(x) - span
		if last < 0 || maxPoolAVX2(dst, at, x, base, offs, last) != len(dst)&^3 {
			panic("simd: MaxPool window outside x")
		}
		i = len(dst) &^ 3
	}
	for ; i < len(dst); i++ {
		win := x[base[i]:]
		best, bestAt := math.Float64bits(win[first]), first
		for _, off := range rest {
			v := win[off]
			vb := math.Float64bits(v)
			if v > math.Float64frombits(best) {
				best, bestAt = vb, off
			}
		}
		dst[i] = math.Float64frombits(best)
		if at != nil {
			at[i] = base[i] + bestAt
		}
	}
}

// nonzero is 1 for v ≠ 0 (NaN included) and 0 for ±0, without a jump, as
// positive is.
func nonzero(v float64) int {
	if v != 0 {
		return 1
	}
	return 0
}

// NonZero writes the positions of x's non-zero elements (NaN included, ±0
// not) into idx in ascending order and returns how many there are. idx must
// be at least as long as x. It has no data-dependent branch: the Go loop
// stores every position and moves past it only when the element is
// non-zero; the AVX2 path stores four positions at a time, compacted by a
// table, and moves past as many as are non-zero.
func NonZero(idx []int, x []float64) int {
	idx = idx[:len(x)]
	n, p := 0, 0
	if useAVX2 {
		n = nonZeroAVX2(idx, x)
		p = len(x) &^ 3
	}
	for ; p < len(x); p++ {
		idx[n] = p
		n += nonzero(x[p])
	}
	return n
}

// Adam is Adam's element update with the bias corrections folded into lrc1
// (lr/c1) and ic2 (1/c2), and nb1 = 1−b1, nb2 = 1−b2. Per element, in this
// order: g' = g + decay·w; m = b1·m + nb1·g'; v = b2·v + (nb2·g')·g';
// w = w − (m·lrc1)/(√(v·ic2) + eps). It updates w, m and v in place.
func Adam(w, m, v, g []float64, decay, b1, nb1, b2, nb2, lrc1, ic2, eps float64) {
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	j := 0
	if useAVX2 {
		adamAVX2(w, m, v, g, decay, b1, nb1, b2, nb2, lrc1, ic2, eps)
		j = len(w) &^ 3
	}
	for ; j < len(w); j++ {
		wj := w[j]
		gj := g[j] + float64(decay*wj)
		mj := float64(b1*m[j]) + float64(nb1*gj)
		vj := float64(b2*v[j]) + float64(nb2*gj*gj)
		m[j], v[j] = mj, vj
		w[j] = wj - mj*lrc1/(math.Sqrt(vj*ic2)+eps)
	}
}

// Dist8First scans slab, dim-8 vectors stored back to back, in whole groups
// of four, and returns the index of the first vector whose squared distance
// to q is less than bound, or -1. A trailing group of fewer than four
// vectors is not read. The distance of v is
// ((d0²+d4²) + (d1²+d5²)) + ((d2²+d6²) + (d3²+d7²)) with d = q − v, which is
// vecindex.Dist2's order for dim 8. The comparison is ordered: a NaN
// distance or bound never qualifies.
func Dist8First(q *[8]float64, slab []float64, bound float64) int {
	if useAVX2 {
		return dist8FirstAVX2(q, slab, bound)
	}
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	slab = slab[:len(slab)/32*32]
	for i := 0; len(slab) >= 8; i, slab = i+1, slab[8:] {
		v := (*[8]float64)(slab)
		d0, d1, d2, d3 := q0-v[0], q1-v[1], q2-v[2], q3-v[3]
		d4, d5, d6, d7 := q4-v[4], q5-v[5], q6-v[6], q7-v[7]
		s0 := float64(d0*d0) + float64(d4*d4)
		s1 := float64(d1*d1) + float64(d5*d5)
		s2 := float64(d2*d2) + float64(d6*d6)
		s3 := float64(d3*d3) + float64(d7*d7)
		if (s0+s1)+(s2+s3) < bound {
			return i
		}
	}
	return -1
}
