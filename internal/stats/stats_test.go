package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPDFFromCounts(t *testing.T) {
	p := NewPDFFromCounts([]int{1, 3}, 2)
	if p[0] != 0.25 || p[1] != 0.75 {
		t.Fatalf("PDF = %v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPDFFromCountsEmptyIsUniform(t *testing.T) {
	p := NewPDFFromCounts(nil, 4)
	for _, v := range p {
		if v != 0.25 {
			t.Fatalf("PDF = %v, want uniform", p)
		}
	}
}

func TestNewPDFFromAssignments(t *testing.T) {
	p := NewPDFFromAssignments([]int{0, 0, 1, 2, -1, 9}, 3)
	want := PDF{0.5, 0.25, 0.25}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("PDF = %v, want %v", p, want)
		}
	}
}

func TestValidateRejectsNegative(t *testing.T) {
	if err := (PDF{1.5, -0.5}).Validate(); err == nil {
		t.Fatal("expected error for negative mass")
	}
	if err := (PDF{}).Validate(); err == nil {
		t.Fatal("expected error for empty PDF")
	}
	if err := (PDF{0.3, 0.3}).Validate(); err == nil {
		t.Fatal("expected error for mass != 1")
	}
}

func TestJSDivergenceBoundsAndKnownValues(t *testing.T) {
	// Identical distributions → 0.
	p := PDF{0.25, 0.75}
	if d := JSDivergence(p, p); d != 0 {
		t.Fatalf("JSD(p,p) = %g", d)
	}
	// Fully disjoint distributions → exactly 1 bit.
	if d := JSDivergence(PDF{1, 0}, PDF{0, 1}); math.Abs(d-1) > 1e-12 {
		t.Fatalf("JSD disjoint = %g, want 1", d)
	}
}

func TestJSDivergenceSymmetric(t *testing.T) {
	p := PDF{0.1, 0.2, 0.7}
	q := PDF{0.5, 0.25, 0.25}
	if math.Abs(JSDivergence(p, q)-JSDivergence(q, p)) > 1e-14 {
		t.Fatal("JSD must be symmetric")
	}
}

func TestQuickJSDProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randPDF := func(k int) PDF {
		p := make(PDF, k)
		for i := range p {
			p[i] = rng.Float64()
		}
		return normalize(p)
	}
	f := func(kSeed uint8) bool {
		k := int(kSeed%7) + 2
		p, q := randPDF(k), randPDF(k)
		d := JSDivergence(p, q)
		dRev := JSDivergence(q, p)
		// Bounded, symmetric, zero on self.
		return d >= 0 && d <= 1 &&
			math.Abs(d-dRev) < 1e-12 &&
			JSDivergence(p, p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestJSDistanceTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randPDF := func(k int) PDF {
		p := make(PDF, k)
		for i := range p {
			p[i] = rng.Float64()
		}
		return normalize(p)
	}
	// The Jensen–Shannon distance, √JSD, is a metric.
	dist := func(a, b PDF) float64 { return math.Sqrt(JSDivergence(a, b)) }
	for trial := 0; trial < 100; trial++ {
		p, q, r := randPDF(5), randPDF(5), randPDF(5)
		if dist(p, r) > dist(p, q)+dist(q, r)+1e-12 {
			t.Fatalf("triangle inequality violated at trial %d", trial)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("P50 = %g", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("P0/P100 wrong")
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("P25 = %g, want 2", got)
	}
	// Interpolated.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Fatalf("interpolated P50 = %g, want 5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("P50 of empty must be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %g", Mean(xs))
	}
	if math.Abs(StdDev(xs)-2.13808993) > 1e-6 {
		t.Fatalf("StdDev = %g", StdDev(xs))
	}
	if StdDev([]float64{1}) != 0 {
		t.Fatal("StdDev of singleton must be 0")
	}
}

func TestHistogram(t *testing.T) {
	counts := Histogram([]float64{0.1, 0.9, 0.5, -5, 99}, 0, 1, 2)
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("Histogram = %v", counts)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := PearsonCorrelation(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %g, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := PearsonCorrelation(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %g, want -1", r)
	}
	if r := PearsonCorrelation(xs, []float64{5, 5, 5, 5}); r != 0 {
		t.Fatalf("r against constant = %g, want 0", r)
	}
}

func TestElbowPoint(t *testing.T) {
	// A classic WSS curve: steep drop then flat — elbow at k=3 (index 2).
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{100, 40, 15, 12, 10, 9}
	idx, err := ElbowPoint(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 2 {
		t.Fatalf("elbow at index %d, want 2", idx)
	}
}

func TestElbowPointErrors(t *testing.T) {
	if _, err := ElbowPoint([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for too few points")
	}
	if _, err := ElbowPoint([]float64{1, 2, 3}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := ElbowPoint([]float64{1, 1, 1}, []float64{2, 2, 2}); err == nil {
		t.Fatal("expected error for degenerate curve")
	}
}

// normalize scales p in place to sum to 1, for building random PDFs. A
// zero-sum p becomes uniform.
func normalize(p PDF) PDF {
	s := 0.0
	for _, v := range p {
		s += v
	}
	for i := range p {
		if s <= 0 {
			p[i] = 1 / float64(len(p))
		} else {
			p[i] /= s
		}
	}
	return p
}
