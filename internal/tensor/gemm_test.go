package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// product is one of the three destination-writing kernels with the index
// maps of its operands, so one triple loop serves as the oracle for all.
type product struct {
	name string
	into func(dst, a, b []float64, m, k, n int, acc bool)
	aAt  func(i, p, m, k int) int // offset of op(a)[i][p]
	bAt  func(p, j, k, n int) int // offset of op(b)[p][j]
}

var products = []product{
	{"a·b", MatMulInto, func(i, p, m, k int) int { return i*k + p }, func(p, j, k, n int) int { return p*n + j }},
	{"aᵀ·b", MatMulTransAInto, func(i, p, m, k int) int { return p*m + i }, func(p, j, k, n int) int { return p*n + j }},
	{"a·bᵀ", MatMulTransBInto, func(i, p, m, k int) int { return i*k + p }, func(p, j, k, n int) int { return j*k + p }},
}

// tripleLoop is the oracle: dst[i][j] (+)= Σ_p op(a)[i][p]·op(b)[p][j].
func (pr product) tripleLoop(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[pr.aAt(i, p, m, k)] * b[pr.bAt(p, j, k, n)]
			}
			dst[i*n+j] += s
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// closeTo reports the first element of got further from want than tol times
// the largest magnitude in want: sums in another order differ by
// rounding relative to the terms, not to a result that cancelled.
func closeTo(got, want []float64, tol float64) error {
	scale := 0.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			return fmt.Errorf("element %d = %g, want %g (off by %g)", i, got[i], want[i], d)
		}
	}
	return nil
}

// TestProductsMatchTripleLoop checks each kernel, overwriting and
// accumulating, for inner and column counts on both sides of every unroll
// width (four rows of b per pass, two inner steps, four-wide tail dots).
func TestProductsMatchTripleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{1, 3, 4, 5, 9, 64, 225}
	for _, pr := range products {
		for _, m := range []int{1, 2, 7} {
			for _, k := range sizes {
				for _, n := range sizes {
					a, b := randSlice(rng, m*k), randSlice(rng, k*n)
					for _, acc := range []bool{false, true} {
						got := randSlice(rng, m*n) // stale contents an overwrite must not see
						want := make([]float64, m*n)
						if acc {
							copy(want, got)
						}
						pr.tripleLoop(want, a, b, m, k, n)
						pr.into(got, a, b, m, k, n, acc)
						if err := closeTo(got, want, 1e-13); err != nil {
							t.Fatalf("%s m=%d k=%d n=%d acc=%v: %v", pr.name, m, k, n, acc, err)
						}
					}
				}
			}
		}
	}
}

// TestProductsSkipZeroBlocksExactly feeds coefficient blocks that are all
// zero (a rectified or padded input) and mixed: the skip must not change the
// answer.
func TestProductsSkipZeroBlocksExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m, k, n := 5, 13, 6
	for _, pr := range products {
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				if p < 8 && i%2 == 0 || p == 9 {
					a[pr.aAt(i, p, m, k)] = 0
				}
			}
		}
		got, want := make([]float64, m*n), make([]float64, m*n)
		pr.tripleLoop(want, a, b, m, k, n)
		pr.into(got, a, b, m, k, n, false)
		if err := closeTo(got, want, 1e-13); err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
	}
}

// edgeValues are the inputs where an operation order or a fused
// multiply-add would show: signed zeros, infinities, NaN, subnormals, and
// magnitudes whose products overflow.
var edgeValues = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, -5e-324, 1e-310, 1e308, -1e308}

// edgeSlice is randSlice with each element replaced by an edge value with
// probability p.
func edgeSlice(rng *rand.Rand, n int, p float64) []float64 {
	s := randSlice(rng, n)
	for i := range s {
		if rng.Float64() < p {
			s[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return s
}

// documentedOrder is the product's summation order spelled out one element
// at a time: the order this package documents and internal/simd's kernels
// keep on either path. a·b and aᵀ·b add four products at a time, skipping
// a block of four zero coefficients, then the last k mod 4 one at a time,
// skipping a zero. a·bᵀ sums even and odd steps apart in a column of a
// group of four and adds the two, and runs four interleaved sums in the
// last n mod 4 columns.
func (pr product) documentedOrder(dst, a, b []float64, m, k, n int, acc bool) {
	if !acc {
		clear(dst)
	}
	at := func(i, p int) float64 { return a[pr.aAt(i, p, m, k)] }
	bt := func(p, j int) float64 { return b[pr.bAt(p, j, k, n)] }
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			o := &dst[i*n+j]
			var s [4]float64
			switch {
			case pr.name != "a·bᵀ":
				p := 0
				for ; p+4 <= k; p += 4 {
					if at(i, p) != 0 || at(i, p+1) != 0 || at(i, p+2) != 0 || at(i, p+3) != 0 {
						*o += float64(at(i, p)*bt(p, j)) + float64(at(i, p+1)*bt(p+1, j)) +
							float64(at(i, p+2)*bt(p+2, j)) + float64(at(i, p+3)*bt(p+3, j))
					}
				}
				for ; p < k; p++ {
					if at(i, p) != 0 {
						*o += float64(at(i, p) * bt(p, j))
					}
				}
			case j < n/4*4:
				for p := 0; p < k; p++ {
					s[p%2] += float64(at(i, p) * bt(p, j))
				}
				*o += s[0] + s[1]
			default:
				for p := 0; p < k; p++ {
					if p < k/4*4 {
						s[p%4] += float64(at(i, p) * bt(p, j))
					} else {
						s[0] += float64(at(i, p) * bt(p, j))
					}
				}
				*o += (s[0] + s[1]) + (s[2] + s[3])
			}
		}
	}
}

// checkDocumentedOrder runs pr on this host's kernel path (AVX2 where the
// CPU has it) and the documented order on the same operands, edge values
// in both operands and in the accumulated destination with probability p.
// The results must have the same bits (any NaN equal to any NaN).
func checkDocumentedOrder(t *testing.T, rng *rand.Rand, pr product, m, k, n int, p float64, acc bool) {
	t.Helper()
	a, b := edgeSlice(rng, m*k, p), edgeSlice(rng, k*n, p)
	dst := edgeSlice(rng, m*n, p)
	want := slices.Clone(dst)
	pr.documentedOrder(want, a, b, m, k, n, acc)
	pr.into(dst, a, b, m, k, n, acc)
	for i := range want {
		if math.Float64bits(dst[i]) != math.Float64bits(want[i]) && !(math.IsNaN(dst[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s m=%d k=%d n=%d acc=%v: element %d is %x, the documented order gives %x",
				pr.name, m, k, n, acc, i, dst[i], want[i])
		}
	}
}

// TestRowUpdateAVX2MatchesPortable holds a·b and aᵀ·b — the products on
// the shared row update, AVX2 on a CPU that has it — to the portable
// documented order, over random shapes on both sides of every multiple of
// four. internal/simd holds the kernel's two paths to each other.
func TestRowUpdateAVX2MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 3000; trial++ {
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(24), 1+rng.Intn(40)
		for _, pr := range products[:2] {
			checkDocumentedOrder(t, rng, pr, m, k, n, []float64{0, 0.02, 0.3}[trial%3], trial%4 != 0)
		}
	}
}

// TestRowTailAVX2MatchesPortable holds the one-row update of the last
// k mod 4 rows of b (k = 9 is a 3×3 convolution) to the documented order,
// over rows of 0 to 300 elements.
func TestRowTailAVX2MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 3000; trial++ {
		m, k, n := 1+rng.Intn(3), 4*rng.Intn(3)+1+rng.Intn(3), rng.Intn(301)
		for _, pr := range products[:2] {
			checkDocumentedOrder(t, rng, pr, m, k, n, []float64{0, 0.02, 0.3}[trial%3], trial%4 != 0)
		}
	}
}

// TestTransBAVX2MatchesPortable holds a·bᵀ's paired-lane kernel to the
// documented order: inner lengths 0 to 300, odd ones ending on an unpaired
// step, and column counts on both sides of every multiple of four, so the
// dot4 columns run too.
func TestTransBAVX2MatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 3000; trial++ {
		m, k, n := 1+rng.Intn(4), rng.Intn(301), 1+rng.Intn(19)
		checkDocumentedOrder(t, rng, products[2], m, k, n, []float64{0, 0.02, 0.3}[trial%3], trial%4 != 0)
	}
}

// TestProductsAreWorkerCountIndependent runs a product big enough to fork
// (m·k·n ≥ ForkWork) at GOMAXPROCS 1, 2 and 8: the bytes must not change,
// because rows are split whole and each element is summed in a fixed order.
func TestProductsAreWorkerCountIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(43))
	m, k, n := 67, 131, 71
	if m*k*n < ForkWork {
		t.Fatalf("shape too small to fork: %d < %d", m*k*n, ForkWork)
	}
	for _, pr := range products {
		a, b := randSlice(rng, m*k), randSlice(rng, k*n)
		var want []float64
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := make([]float64, m*n)
			pr.into(got, a, b, m, k, n, false)
			if want == nil {
				want = got
				oracle := make([]float64, m*n)
				pr.tripleLoop(oracle, a, b, m, k, n)
				if err := closeTo(got, oracle, 1e-13); err != nil {
					t.Fatalf("%s: %v", pr.name, err)
				}
				continue
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: element %d differs between GOMAXPROCS 1 and %d", pr.name, i, procs)
				}
			}
		}
	}
}

// TestProductsAllocateNothing holds the kernels to their word at a layer's
// shapes (below ForkWork, so on the caller's goroutine). An odd k runs
// a·bᵀ's unpaired step and the row update's one-row tail.
func TestProductsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, k, n := 16, 201, 63
	for _, pr := range products {
		a, b, dst := randSlice(rng, m*k), randSlice(rng, k*n), make([]float64, m*n)
		if got := testing.AllocsPerRun(10, func() { pr.into(dst, a, b, m, k, n, true) }); got != 0 {
			t.Errorf("%s allocates %.0f times per call", pr.name, got)
		}
	}
}

func TestProductsRejectWrongLengths(t *testing.T) {
	for _, pr := range products {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a destination one element short", pr.name)
				}
			}()
			pr.into(make([]float64, 5), make([]float64, 6), make([]float64, 9), 2, 3, 3, false)
		}()
	}
}

func TestParallelWorkCoversRangeOnce(t *testing.T) {
	for _, work := range []int{0, ForkWork} {
		hits := make([]int32, 101)
		ParallelWork(len(hits), work, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("work %d: index %d visited %d times", work, i, h)
			}
		}
	}
}

func TestReuse2D(t *testing.T) {
	a := Reuse2D(nil, 4, 3)
	if a.Dim(0) != 4 || a.Dim(1) != 3 || a.Len() != 12 {
		t.Fatalf("fresh workspace shape %v", a.Shape())
	}
	a.Data()[0] = 7
	b := Reuse2D(a, 2, 5) // fits: same tensor, re-shaped, contents kept
	if b != a || b.Dim(0) != 2 || b.Dim(1) != 5 || b.Len() != 10 || b.Data()[0] != 7 {
		t.Fatalf("shrunk workspace is %p %v, want %p [2 5]", b, b.Shape(), a)
	}
	if c := Reuse2D(b, 4, 3); c != a || c.Len() != 12 { // grows back within capacity
		t.Fatalf("regrown workspace is %p %v", c, c.Shape())
	}
	if d := Reuse2D(a, 5, 5); d == a || d.Len() != 25 {
		t.Fatal("a workspace too small for the request must be replaced")
	}
	if e := Reuse2D(New(12), 4, 3); e.NDim() != 2 {
		t.Fatal("a 1-D tensor cannot be re-shaped in place to 2-D")
	}
}

// naiveIm2Col and naiveCol2Im test every output position against the image
// bounds, one element at a time.
func naiveIm2Col(img []float64, d ConvDims, cols []float64) {
	idx := 0
	for c := 0; c < d.InC; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for oh := 0; oh < d.OutH(); oh++ {
					for ow := 0; ow < d.OutW(); ow++ {
						ih, iw := oh*d.Stride+kh-d.Pad, ow*d.Stride+kw-d.Pad
						cols[idx] = 0
						if ih >= 0 && ih < d.InH && iw >= 0 && iw < d.InW {
							cols[idx] = img[c*d.InH*d.InW+ih*d.InW+iw]
						}
						idx++
					}
				}
			}
		}
	}
}

func naiveCol2Im(cols []float64, d ConvDims, img []float64) {
	idx := 0
	for c := 0; c < d.InC; c++ {
		for kh := 0; kh < d.KH; kh++ {
			for kw := 0; kw < d.KW; kw++ {
				for oh := 0; oh < d.OutH(); oh++ {
					for ow := 0; ow < d.OutW(); ow++ {
						ih, iw := oh*d.Stride+kh-d.Pad, ow*d.Stride+kw-d.Pad
						if ih >= 0 && ih < d.InH && iw >= 0 && iw < d.InW {
							img[c*d.InH*d.InW+ih*d.InW+iw] += cols[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// TestIm2ColCol2ImMatchNaive sweeps strides, paddings (including wider than
// the kernel) and non-square images and kernels; both directions copy, so
// they must agree exactly, stale destination contents included.
func TestIm2ColCol2ImMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, d := range []ConvDims{
		{InC: 1, InH: 15, InW: 15, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 7, InW: 5, KH: 3, KW: 2, Stride: 2, Pad: 0},
		{InC: 2, InH: 6, InW: 9, KH: 2, KW: 3, Stride: 2, Pad: 1},
		{InC: 2, InH: 4, InW: 4, KH: 4, KW: 4, Stride: 1, Pad: 0}, // 1×1 output
		{InC: 1, InH: 5, InW: 8, KH: 1, KW: 1, Stride: 3, Pad: 0},
		{InC: 1, InH: 3, InW: 3, KH: 3, KW: 3, Stride: 1, Pad: 3}, // padding wider than the kernel
		{InC: 2, InH: 5, InW: 6, KH: 3, KW: 3, Stride: 3, Pad: 2},
		{InC: 2, InH: 5, InW: 4, KH: 3, KW: 5, Stride: 1, Pad: 2}, // as wide as the image, taller
		{InC: 2, InH: 2, InW: 3, KH: 9, KW: 9, Stride: 1, Pad: 4}, // as wide as the image, padding wider than it
		{InC: 3, InH: 4, InW: 6, KH: 1, KW: 1, Stride: 1, Pad: 0},
	} {
		d.Validate()
		img := randSlice(rng, d.InC*d.InH*d.InW)
		n := d.InC * d.KH * d.KW * d.OutH() * d.OutW()
		got, want := randSlice(rng, n), make([]float64, n)
		Im2Col(img, d, got)
		naiveIm2Col(img, d, want)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: Im2Col[%d] = %g, want %g", d, i, got[i], want[i])
			}
		}
		cols := randSlice(rng, n)
		gotImg, wantImg := make([]float64, len(img)), make([]float64, len(img))
		Col2Im(cols, d, gotImg)
		naiveCol2Im(cols, d, wantImg)
		for i := range wantImg {
			if gotImg[i] != wantImg[i] {
				t.Fatalf("%+v: Col2Im[%d] = %g, want %g", d, i, gotImg[i], wantImg[i])
			}
		}
	}
}
