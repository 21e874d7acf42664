package vecindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
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

// scanAsking runs scan over [lo, hi) with exclude set to the excluded map
// and records the IDs it was asked about, in order.
func scanAsking(scan func(exclude func(string) bool) (int, float64), excluded map[string]bool) (slot int, d2 float64, asked []string) {
	slot, d2 = scan(func(id string) bool {
		asked = append(asked, id)
		return excluded[id]
	})
	return slot, d2, asked
}

// checkMatchesScan8 fails t unless scanRange's dim-8 scan of [lo, hi),
// which runs simd.Dist8First, gives scan8's slot and bits and asks exclude
// the same questions.
func checkMatchesScan8(t *testing.T, vecs []float64, ids []string, q []float64, excluded map[string]bool, lo, hi int) {
	t.Helper()
	ps, pd, pAsked := scanAsking(func(ex func(string) bool) (int, float64) {
		return scan8(vecs, ids, (*[8]float64)(q), ex, lo, hi, -1, 0)
	}, excluded)
	gs, gd, gAsked := scanAsking(func(ex func(string) bool) (int, float64) {
		return scanRange(vecs, ids, 8, q, ex, lo, hi)
	}, excluded)
	if ps != gs || (ps >= 0 && !sameBits(pd, gd)) {
		t.Fatalf("[%d, %d): scan8 (%d, %x), scanRange (%d, %x)", lo, hi, ps, pd, gs, gd)
	}
	if !slices.Equal(pAsked, gAsked) {
		t.Fatalf("[%d, %d): exclude asked %v by scan8, %v by scanRange", lo, hi, pAsked, gAsked)
	}
}

// TestAVX2ScanMatchesPortable is the four-at-a-time scan's contract as a
// property: slabs of 4 to 300 vectors with edge values, planted ties and
// exclusion sets of every density give scan8's slot and bits, and exclude
// is asked about the same IDs in the same order. simd.Dist8First runs in
// AVX2 where the CPU has it; internal/simd holds its two paths to each
// other.
func TestAVX2ScanMatchesPortable(t *testing.T) {
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
		checkMatchesScan8(t, vecs, ids, q, excluded, 0, n)
		checkMatchesScan8(t, vecs, ids, q, excluded, lo, lo+rng.Intn(n-lo+1))
	}
}

// FuzzScanRange compares the dim-8 scan with scan8 on arbitrary bytes: q
// is eight little-endian float64s (zero-padded), slab holds whole vectors
// of 64 bytes, and bit i of excludeMask excludes vector i.
func FuzzScanRange(f *testing.F) {
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
		checkMatchesScan8(t, vecs, ids, qv, excluded, 0, n)
		if n > 1 {
			checkMatchesScan8(t, vecs, ids, qv, excluded, 1, n)
		}
	})
}

// TestScanAllocatesNothing holds a query, with and without an exclusion
// set, to zero allocations.
func TestScanAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx := NewFlat()
	if err := idx.Rebuild(randEntries(rng, 3000, 8, 1)); err != nil {
		t.Fatal(err)
	}
	q := randVec(rng, 8)
	excluded := map[string]bool{"doc-1": true, "doc-2": true}
	exclude := func(id string) bool { return excluded[id] }
	for _, ex := range []func(string) bool{nil, exclude} {
		if got := testing.AllocsPerRun(50, func() { idx.Nearest(0, q, ex) }); got != 0 {
			t.Errorf("a query allocates %.0f times", got)
		}
	}
}
