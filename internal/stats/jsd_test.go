package stats

import (
	"math"
	"math/rand"
	"testing"
)

// twoPassJSD is JSDivergence as it was written before it stopped
// allocating: the mixture materialised, then KL(p‖m) and KL(q‖m) as two
// separate passes. It is the oracle the one-pass form must match bit for
// bit.
func twoPassJSD(p, q PDF) float64 {
	m := make(PDF, len(p))
	for i := range p {
		m[i] = 0.5 * (p[i] + q[i])
	}
	kl := func(p, m PDF) float64 {
		d := 0.0
		for i := range p {
			if p[i] > 0 && m[i] > 0 {
				d += p[i] * math.Log2(p[i]/m[i])
			}
		}
		return d
	}
	d := 0.5*kl(p, m) + 0.5*kl(q, m)
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d
}

// TestJSDivergenceMatchesTwoPassOracle: on random PDFs with empty bins,
// subnormal masses, point masses and disjoint supports, the one-pass
// divergence is the two-pass one's bits.
func TestJSDivergenceMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randPDF := func(k int) PDF {
		p := make(PDF, k)
		for i := range p {
			switch rng.Intn(6) {
			case 0: // empty bin
			case 1:
				p[i] = 5e-324
			default:
				p[i] = rng.Float64()
			}
		}
		return normalize(p)
	}
	for trial := range 2000 {
		k := 1 + rng.Intn(64)
		p, q := randPDF(k), randPDF(k)
		if trial%50 == 0 {
			// A point mass against its complement.
			clear(p)
			clear(q)
			p[0], q[k-1] = 1, 1
		}
		for _, pair := range [][2]PDF{{p, q}, {q, p}, {p, p}} {
			got, want := JSDivergence(pair[0], pair[1]), twoPassJSD(pair[0], pair[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("k=%d: JSD = %v, two-pass oracle %v (p=%v q=%v)", k, got, want, pair[0], pair[1])
			}
		}
	}
}

// TestJSDivergenceAllocatesNothing: fairMS ranks a query against every
// model, one divergence each.
func TestJSDivergenceAllocatesNothing(t *testing.T) {
	p := NewPDFFromCounts([]int{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	q := NewPDFFromCounts([]int{8, 7, 6, 5, 4, 3, 2, 1}, 8)
	if got := testing.AllocsPerRun(100, func() { JSDivergence(p, q) }); got != 0 {
		t.Errorf("JSDivergence makes %.0f allocations, want 0", got)
	}
}
