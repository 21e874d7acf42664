// Package stats provides the probability and summary-statistics primitives
// fairDMS relies on: discrete probability distributions (cluster PDFs),
// Kullback–Leibler and Jensen–Shannon divergences for model ranking,
// percentile summaries for error histograms, and knee-point ("elbow")
// detection for choosing the number of k-means clusters.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// PDF is a discrete probability distribution over a fixed number of bins
// (in fairDMS, over cluster IDs). Entries are non-negative and sum to 1.
type PDF []float64

// NewPDFFromCounts builds a normalized PDF over k bins from integer counts.
// A total count of zero yields the uniform distribution so that downstream
// divergences stay defined.
func NewPDFFromCounts(counts []int, k int) PDF {
	if k < len(counts) {
		k = len(counts)
	}
	p := make(PDF, k)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		for i := range p {
			p[i] = 1 / float64(k)
		}
		return p
	}
	for i, c := range counts {
		p[i] = float64(c) / float64(total)
	}
	return p
}

// NewPDFFromAssignments builds a PDF over k bins from per-sample bin labels.
// Labels outside [0, k) are ignored.
func NewPDFFromAssignments(labels []int, k int) PDF {
	counts := make([]int, k)
	for _, l := range labels {
		if l >= 0 && l < k {
			counts[l]++
		}
	}
	return NewPDFFromCounts(counts, k)
}

// Validate returns an error unless p is a proper distribution (non-negative,
// sums to 1 within tolerance).
func (p PDF) Validate() error {
	if len(p) == 0 {
		return errors.New("stats: empty PDF")
	}
	s := 0.0
	for i, v := range p {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("stats: PDF bin %d has invalid mass %g", i, v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("stats: PDF mass %g != 1", s)
	}
	return nil
}

// JSDivergence returns the Jensen–Shannon divergence between p and q in bits.
// It is symmetric and bounded in [0, 1]: 0 for identical distributions and 1
// for distributions with disjoint support. This is the metric fairMS uses to
// rank zoo models against an input dataset (paper §II-B), once per model
// on every recommend, so it allocates nothing: the mixture m = ½(p+q) is
// formed bin by bin, and KL(p‖m) and KL(q‖m) are summed side by side, each
// in bin order.
func JSDivergence(p, q PDF) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: JSD between PDFs of different lengths %d vs %d", len(p), len(q)))
	}
	q = q[:len(p)]
	var klP, klQ float64
	for i, pi := range p {
		qi := q[i]
		m := 0.5 * (pi + qi)
		if pi > 0 && m > 0 {
			klP += float64(pi * math.Log2(pi/m))
		}
		if qi > 0 && m > 0 {
			klQ += float64(qi * math.Log2(qi/m))
		}
	}
	d := float64(0.5*klP) + float64(0.5*klQ)
	// Clamp tiny negative values from floating-point rounding.
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	return d
}

// Percentile returns the q-th percentile (0 <= q <= 100) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := float64(q / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for n < 2).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(n-1))
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the per-bin counts. Values outside the range are clamped to the end bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	counts := make([]int, nbins)
	if nbins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(nbins)
	for _, v := range xs {
		b := int((v - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}

// PearsonCorrelation returns the sample correlation coefficient of (xs, ys).
// It panics if the lengths differ and returns 0 when either side is constant.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: correlation between slices of lengths %d and %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += float64(dx * dy)
		sxx += float64(dx * dx)
		syy += float64(dy * dy)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ElbowPoint finds the "knee" of a monotonically decreasing curve ys sampled
// at xs (e.g. k-means within-cluster sum of squares as a function of k) by
// the maximum-distance-to-chord method used by the YellowBrick KneeLocator:
// the point farthest from the straight line joining the first and last
// samples. It returns the index of the elbow. This is fairDS's automatic
// cluster-count selector (paper §II-A).
func ElbowPoint(xs, ys []float64) (int, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: elbow inputs of different lengths %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 3 {
		return 0, errors.New("stats: elbow needs at least 3 points")
	}
	x0, y0 := xs[0], ys[0]
	x1, y1 := xs[len(xs)-1], ys[len(ys)-1]
	dx, dy := x1-x0, y1-y0
	norm := math.Hypot(dx, dy)
	if norm == 0 {
		return 0, errors.New("stats: degenerate elbow curve (identical endpoints)")
	}
	best, bestI := -1.0, 0
	for i := range xs {
		// Perpendicular distance from (xs[i], ys[i]) to the chord.
		d := math.Abs(float64(dy*xs[i])-float64(dx*ys[i])+float64(x1*y0)-float64(y1*x0)) / norm
		if d > best {
			best, bestI = d, i
		}
	}
	return bestI, nil
}
