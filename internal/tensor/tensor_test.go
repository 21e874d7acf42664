package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 {
		t.Fatalf("Len = %d, want 6", a.Len())
	}
	for i, v := range a.Data() {
		if v != 0 {
			t.Fatalf("element %d = %g, want 0", i, v)
		}
	}
}

func TestNewNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimension")
		}
	}()
	New(2, -1)
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4)
	a.Set(7.5, 2, 1)
	if got := a.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %g, want 7.5", got)
	}
	if got := a.Data()[2*4+1]; got != 7.5 {
		t.Fatalf("flat layout wrong: got %g at offset 9", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	a.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must not share data")
	}
}

func TestRowSharesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	r := a.Row(1)
	r[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row must alias tensor storage")
	}
}

func TestAddSubMul(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := Add(a, b).Data(); got[2] != 33 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[1] != 40 {
		t.Fatalf("Mul wrong: %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	Add(New(2), New(3))
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{19, 22, 43, 50}, 2, 2)
	if !AllClose(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(rng, 1, 5, 5)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	if !AllClose(MatMul(a, id), a, 1e-12) {
		t.Fatal("A × I must equal A")
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(rng, 1, 4, 7)
	b := Randn(rng, 1, 3, 7)
	got := New(4, 3)
	MatMulTransBInto(got.Data(), a.Data(), b.Data(), 4, 7, 3, false)
	want := MatMul(a, Transpose(b))
	if !AllClose(got, want, 1e-10) {
		t.Fatal("MatMulTransBInto disagrees with explicit transpose")
	}
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Randn(rng, 1, 7, 4)
	b := Randn(rng, 1, 7, 3)
	got := New(4, 3)
	MatMulTransAInto(got.Data(), a.Data(), b.Data(), 4, 7, 3, false)
	want := MatMul(Transpose(a), b)
	if !AllClose(got, want, 1e-10) {
		t.Fatal("MatMulTransAInto disagrees with explicit transpose")
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to trigger the parallel path; verify against a naive
	// serial triple loop.
	rng := rand.New(rand.NewSource(4))
	m, k, n := 70, 33, 41
	a := Randn(rng, 1, m, k)
	b := Randn(rng, 1, k, n)
	got := MatMul(a, b)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			want.Set(s, i, j)
		}
	}
	if !AllClose(got, want, 1e-9) {
		t.Fatal("parallel MatMul disagrees with naive serial product")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Randn(rng, 1, 3, 8)
	if !AllClose(Transpose(Transpose(a)), a, 0) {
		t.Fatal("transpose of transpose must be identity")
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, 1}, 4)
	if a.Sum() != 7 {
		t.Fatalf("Sum = %g", a.Sum())
	}
	if a.Mean() != 1.75 {
		t.Fatalf("Mean = %g", a.Mean())
	}
	if v, i := a.Max(); v != 4 || i != 2 {
		t.Fatalf("Max = %g@%d", v, i)
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v := FromSlice([]float64{10, 20}, 2)
	got := AddRowVector(a, v)
	want := FromSlice([]float64{11, 22, 13, 24}, 2, 2)
	if !AllClose(got, want, 0) {
		t.Fatalf("AddRowVector = %v", got)
	}
	s := SumRows(a)
	if s.At(0) != 4 || s.At(1) != 6 {
		t.Fatalf("SumRows = %v", s)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1×1 kernel with stride 1 and no padding must reproduce the image.
	img := []float64{1, 2, 3, 4}
	d := ConvDims{InC: 1, InH: 2, InW: 2, KH: 1, KW: 1, Stride: 1}
	d.Validate()
	cols := make([]float64, 4)
	Im2Col(img, d, cols)
	for i := range img {
		if cols[i] != img[i] {
			t.Fatalf("cols = %v, want %v", cols, img)
		}
	}
}

func TestIm2ColPaddingZeroes(t *testing.T) {
	img := []float64{1}
	d := ConvDims{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	d.Validate()
	cols := make([]float64, 9)
	Im2Col(img, d, cols)
	// Only the center tap sees the pixel; the rest are zero padding.
	sum := 0.0
	for _, v := range cols {
		sum += v
	}
	if sum != 1 || cols[4] != 1 {
		t.Fatalf("cols = %v, want single 1 at center", cols)
	}
}

func TestCol2ImRoundTripAdjoint(t *testing.T) {
	// <Im2Col(x), y> must equal <x, Col2Im(y)> — the two are adjoint maps.
	rng := rand.New(rand.NewSource(6))
	d := ConvDims{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 2, Pad: 1}
	d.Validate()
	nimg := d.InC * d.InH * d.InW
	ncols := d.InC * d.KH * d.KW * d.OutH() * d.OutW()
	x := make([]float64, nimg)
	y := make([]float64, ncols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	cx := make([]float64, ncols)
	Im2Col(x, d, cx)
	lhs := 0.0
	for i := range cx {
		lhs += cx[i] * y[i]
	}
	gx := make([]float64, nimg)
	Col2Im(y, d, gx)
	rhs := 0.0
	for i := range gx {
		rhs += gx[i] * x[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	n := 1000
	hits := make([]int32, n)
	ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForSmallRunsInline(t *testing.T) {
	count := 0
	ParallelFor(3, func(lo, hi int) { count += hi - lo })
	if count != 3 {
		t.Fatalf("covered %d of 3", count)
	}
}

// Property: vector addition is commutative and associative within tolerance.
func TestQuickAddCommutative(t *testing.T) {
	f := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		a := FromSlice(append([]float64(nil), xs[:n]...), n)
		b := FromSlice(append([]float64(nil), ys[:n]...), n)
		return AllClose(Add(a, b), Add(b, a), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(mSeed, nSeed, kSeed uint8) bool {
		m := int(mSeed%5) + 1
		n := int(nSeed%5) + 1
		k := int(kSeed%5) + 1
		a := Randn(rng, 1, m, k)
		b := Randn(rng, 1, k, n)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return AllClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSquaredDistance(t *testing.T) {
	if d := SquaredDistance([]float64{0, 3}, []float64{4, 0}); d != 25 {
		t.Fatalf("SquaredDistance = %g, want 25", d)
	}
}
