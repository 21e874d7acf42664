package main

import (
	"math"
	"sort"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least p%
// of the samples at or below it. No interpolation and no buckets — the
// gated bounds (5%) are tighter than internal/hdrhist's ~3% resolution.
// It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the mean of the two middle samples for even n (what
// statistics.median gives), so repeated-run medians match the driver's.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// them, so the self-check measures the spread the driver measures. It
// needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// favourable returns the quartile of xs on the good side: the upper
// quartile of rates (higher is better), the lower quartile of latencies.
// It is the nearest-rank sample, like percentile.
func favourable(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(xs, 75)
	}
	return percentile(xs, 25)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
