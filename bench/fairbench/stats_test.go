package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	// A sample value is always returned, never an interpolation.
	if got := percentile([]float64{1, 100}, 50); got != 1 {
		t.Errorf("percentile({1,100}, 50) = %v, want the sample 1", got)
	}
}

// Reference values from Python: statistics.quantiles(xs, n=4) and
// statistics.median(xs).
func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 40, 80, 160}, 15, 40, 120},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: got q1=%v med=%v q3=%v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
}
