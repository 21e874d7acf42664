package vecindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairdms/internal/tensor"
)

// edgeValues are the inputs where an operation order or a fused
// multiply-add would show: signed zeros, infinities, NaN, subnormals, and
// magnitudes whose squares overflow.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
}

// edgeVec is a random dim-8 vector with each element replaced by an edge
// value with probability p.
func edgeVec(rng *rand.Rand, p float64) []float64 {
	v := randVec(rng, 8)
	for j := range v {
		if rng.Float64() < p {
			v[j] = edgeValues[rng.Intn(len(edgeValues))]
		}
	}
	return v
}

// sameBits compares two distances bit for bit, any NaN equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// scanOn runs scanRange on one path and records the IDs exclude was asked
// about, in order.
func scanOn(path scanPath, vecs []float64, ids []string, q []float64, excluded map[string]bool, lo, hi int) (slot int, d2 float64, asked []string) {
	path.run(func() {
		slot, d2 = scanRange(vecs, ids, 8, q, func(id string) bool {
			asked = append(asked, id)
			return excluded[id]
		}, lo, hi)
	})
	return slot, d2, asked
}

// checkPathsAgree fails t unless the AVX2 scan of [lo, hi) gives the
// portable scan's slot and bits and asks exclude the same questions.
func checkPathsAgree(t *testing.T, vecs []float64, ids []string, q []float64, excluded map[string]bool, lo, hi int) {
	t.Helper()
	ps, pd, pAsked := scanOn(scanPath{"portable", false}, vecs, ids, q, excluded, lo, hi)
	as, ad, aAsked := scanOn(scanPath{"avx2", true}, vecs, ids, q, excluded, lo, hi)
	if ps != as || (ps >= 0 && !sameBits(pd, ad)) {
		t.Fatalf("[%d, %d): portable (%d, %x), avx2 (%d, %x)", lo, hi, ps, pd, as, ad)
	}
	if !slices.Equal(pAsked, aAsked) {
		t.Fatalf("[%d, %d): exclude asked %v on the portable path, %v on avx2", lo, hi, pAsked, aAsked)
	}
}

func requireAVX2(tb testing.TB) {
	if !tensor.HasAVX2() {
		tb.Skip("no AVX2 on this CPU: the portable scan is the only one")
	}
}

// TestAVX2ScanMatchesPortable is the kernel's contract as a property:
// slabs of 4 to 300 vectors with edge values, planted ties and exclusion
// sets of every density give the same slot and bits on both paths, and
// exclude is asked about the same IDs in the same order.
func TestAVX2ScanMatchesPortable(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 3000; trial++ {
		n := 4 + rng.Intn(297)
		edge := []float64{0, 0.02, 0.2}[trial%3]
		vecs := make([]float64, 0, n*8)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("doc-%d", i)
			v := edgeVec(rng, edge)
			if i > 0 && rng.Intn(4) == 0 { // a tie with an earlier vector
				j := rng.Intn(i)
				v = vecs[j*8 : (j+1)*8]
			}
			vecs = append(vecs, v...)
		}
		q := edgeVec(rng, edge)
		excluded := make(map[string]bool)
		density := []float64{0, 0.3, 0.9, 1}[rng.Intn(4)]
		for _, id := range ids {
			if rng.Float64() < density {
				excluded[id] = true
			}
		}
		lo := rng.Intn(4)
		checkPathsAgree(t, vecs, ids, q, excluded, 0, n)
		checkPathsAgree(t, vecs, ids, q, excluded, lo, lo+rng.Intn(n-lo+1))
	}
}

// TestDist8FirstHasDist2Bits pins the kernel's distance of every lane to
// Dist2's bits. The scan rechecks a candidate the kernel reports, so a
// distance a bit too small costs only a recheck and no other test sees it;
// here a vector alone among NaN fillers must miss a bound equal to its
// Dist2 and meet the next float up, which only that exact value does.
func TestDist8FirstHasDist2Bits(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(24))
	nanVec := []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0}
	for trial := 0; trial < 4000; trial++ {
		q, v := edgeVec(rng, []float64{0, 0.1}[trial%2]), edgeVec(rng, []float64{0, 0.1}[trial%2])
		d := Dist2(q, v)
		lane := trial % 4
		var slab []float64
		for i := 0; i < 4; i++ {
			if i == lane {
				slab = append(slab, v...)
			} else {
				slab = append(slab, nanVec...)
			}
		}
		up, wantUp := math.Nextafter(d, math.Inf(1)), lane
		if math.IsNaN(d) || math.IsInf(d, 1) {
			wantUp = -1
		}
		if got := dist8first((*[8]float64)(q), slab, d); got != -1 {
			t.Fatalf("q=%v v=%v lane %d: kernel distance below Dist2 %x", q, v, lane, d)
		}
		if got := dist8first((*[8]float64)(q), slab, up); got != wantUp {
			t.Fatalf("q=%v v=%v lane %d: kernel distance above Dist2 %x (got %d)", q, v, lane, d, got)
		}
	}
}

// TestDist8FirstFindsFirstBelowBound checks the kernel alone against the
// scalar distance: the first vector of a whole group of four strictly
// below the bound, with NaN never qualifying and the tail never read.
func TestDist8FirstFindsFirstBelowBound(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		vecs := make([]float64, 0, n*8)
		for range n {
			vecs = append(vecs, edgeVec(rng, []float64{0, 0.05, 0.3}[trial%3])...)
		}
		q := edgeVec(rng, 0.05)
		bound := rng.ExpFloat64() * 16
		switch rng.Intn(6) {
		case 0:
			bound = math.Inf(1)
		case 1:
			bound = math.NaN()
		case 2:
			bound = 0
		case 3:
			if n > 0 { // a tie: equal is not below
				bound = Dist2(q, vecs[rng.Intn(n)*8:][:8])
			}
		}
		want := -1
		for i := 0; i < n/4*4; i++ {
			if Dist2(q, vecs[i*8:(i+1)*8]) < bound {
				want = i
				break
			}
		}
		if got := dist8first((*[8]float64)(q), vecs, bound); got != want {
			t.Fatalf("trial %d, %d vectors, bound %g: dist8first = %d, want %d", trial, n, bound, got, want)
		}
	}
}

// FuzzScanRange compares the two dim-8 paths on arbitrary bytes: q is
// eight little-endian float64s (zero-padded), slab holds whole vectors of
// 64 bytes, and bit i of excludeMask excludes vector i.
func FuzzScanRange(f *testing.F) {
	requireAVX2(f)
	f.Fuzz(func(t *testing.T, q, slab, excludeMask []byte) {
		qv := make([]float64, 8)
		for j := range qv {
			if len(q) >= (j+1)*8 {
				qv[j] = math.Float64frombits(binary.LittleEndian.Uint64(q[j*8:]))
			}
		}
		n := min(len(slab)/64, 1024)
		vecs := make([]float64, n*8)
		for j := range vecs {
			vecs[j] = math.Float64frombits(binary.LittleEndian.Uint64(slab[j*8:]))
		}
		ids := make([]string, n)
		excluded := make(map[string]bool)
		for i := range ids {
			ids[i] = fmt.Sprint(i)
			if i/8 < len(excludeMask) && excludeMask[i/8]>>(i%8)&1 == 1 {
				excluded[ids[i]] = true
			}
		}
		checkPathsAgree(t, vecs, ids, qv, excluded, 0, n)
		if n > 1 {
			checkPathsAgree(t, vecs, ids, qv, excluded, 1, n)
		}
	})
}

// TestScanAllocatesNothing holds a query below the fork threshold, with
// and without an exclusion set, to zero allocations on every path.
func TestScanAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := NewFlat()
	if err := idx.Rebuild(randEntries(rng, 3000, 8, 1)); err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, 8)
	excluded := map[string]bool{"doc-1": true, "doc-2": true}
	exclude := func(id string) bool { return excluded[id] }
	for _, path := range scanPaths() {
		path.run(func() {
			for _, ex := range []func(string) bool{nil, exclude} {
				if got := testing.AllocsPerRun(50, func() { idx.Nearest(0, q, ex) }); got != 0 {
					t.Errorf("%s: a query allocates %.0f times", path.name, got)
				}
			}
		})
	}
}
