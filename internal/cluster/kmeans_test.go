package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairdms/internal/tensor"
)

// blobs generates n points around each of the given centers with the given
// spread.
func blobs(rng *rand.Rand, centers [][]float64, n int, spread float64) ([][]float64, []int) {
	var data [][]float64
	var labels []int
	for ci, c := range centers {
		for i := 0; i < n; i++ {
			p := make([]float64, len(c))
			for j := range p {
				p[j] = c[j] + rng.NormFloat64()*spread
			}
			data = append(data, p)
			labels = append(labels, ci)
		}
	}
	return data, labels
}

func TestFitSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	data, truth := blobs(rng, centers, 50, 0.5)
	km, err := Fit(data, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	assign := km.Predict(data)
	// Every ground-truth blob must map to exactly one predicted cluster.
	for blob := 0; blob < 3; blob++ {
		seen := map[int]int{}
		for i, a := range assign {
			if truth[i] == blob {
				seen[a]++
			}
		}
		if len(seen) != 1 {
			t.Fatalf("blob %d split across clusters: %v", blob, seen)
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Fit([][]float64{{1}}, Config{K: 2}); err == nil {
		t.Fatal("expected error for n < K")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, Config{K: 1}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, _ := blobs(rng, [][]float64{{0, 0}, {5, 5}}, 30, 0.3)
	a, err := Fit(data, Config{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(data, Config{K: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Fatalf("same seed, different inertia: %g vs %g", a.Inertia, b.Inertia)
	}
}

// TestPredictOneMatchesPredict holds Predict's batched assignment to the
// one-sample definition: the nearest center, ties to the lower index.
func TestPredictOneMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, _ := blobs(rng, [][]float64{{0, 0}, {8, 8}}, 20, 0.4)
	km, err := Fit(data, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := km.Predict(data)
	for i, row := range data {
		best, one := math.Inf(1), 0
		for k, c := range km.Centers {
			if d := tensor.SquaredDistance(row, c); d < best {
				best, one = d, k
			}
		}
		if one != batch[i] {
			t.Fatalf("sample %d: nearest center %d != Predict %d", i, one, batch[i])
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, _ := blobs(rng, [][]float64{{0, 0}, {6, 0}, {0, 6}, {6, 6}}, 25, 0.8)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		km, err := Fit(data, Config{K: k, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// Allow tiny non-monotonicity from local optima, but the trend
		// must be overwhelmingly downward.
		if km.Inertia > prev*1.05 {
			t.Fatalf("inertia rose sharply at k=%d: %g -> %g", k, prev, km.Inertia)
		}
		prev = km.Inertia
	}
}

func TestSelectKFindsBlobCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	centers := [][]float64{{0, 0}, {12, 0}, {0, 12}, {12, 12}}
	data, _ := blobs(rng, centers, 40, 0.5)
	k, km, wss, err := SelectK(data, 1, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Fatalf("SelectK chose %d, want 4 (wss=%v)", k, wss)
	}
	if km.K() != 4 {
		t.Fatalf("returned model has K=%d", km.K())
	}
	if len(wss) != 8 {
		t.Fatalf("wss curve has %d points, want 8", len(wss))
	}
}

func TestSelectKErrors(t *testing.T) {
	data := [][]float64{{1}, {2}, {3}, {4}}
	if _, _, _, err := SelectK(data, 3, 2, 0); err == nil {
		t.Fatal("expected error for inverted range")
	}
	if _, _, _, err := SelectK(data, 1, 2, 0); err == nil {
		t.Fatal("expected error for too-narrow range")
	}
}

func TestPDFSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data, _ := blobs(rng, [][]float64{{0, 0}, {9, 9}}, 32, 0.4)
	km, err := Fit(data, Config{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := km.PDF(data)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Balanced blobs → roughly balanced PDF.
	if math.Abs(p[0]-0.5) > 0.1 {
		t.Fatalf("PDF = %v, want ~[0.5 0.5]", p)
	}
}

func TestMembershipsRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data, _ := blobs(rng, [][]float64{{0, 0}, {10, 10}}, 25, 0.6)
	km, err := Fit(data, Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := km.Memberships(data, 2)
	for i, row := range u {
		s := 0.0
		for _, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("membership out of range: %v", row)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d memberships sum to %g", i, s)
		}
	}
}

func TestMembershipExactCenterIsOne(t *testing.T) {
	km := &KMeans{Centers: [][]float64{{0, 0}, {4, 4}}}
	u := km.Memberships([][]float64{{0, 0}}, 2)
	if u[0][0] != 1 || u[0][1] != 0 {
		t.Fatalf("membership at exact center = %v, want [1 0]", u[0])
	}
}

func TestCertaintyTightVsDiffuse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	centers := [][]float64{{0, 0}, {20, 20}}
	tight, _ := blobs(rng, centers, 40, 0.3)
	km, err := Fit(tight, Config{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// With two clusters the max membership is always >= 0.5, so a stricter
	// threshold is needed to discriminate confident from boundary samples.
	cTight := km.Certainty(tight, 2, 0.9)
	// Points near the decision boundary have ambiguous membership.
	boundary := make([][]float64, 30)
	for i := range boundary {
		boundary[i] = []float64{10 + rng.NormFloat64(), 10 + rng.NormFloat64()}
	}
	cBoundary := km.Certainty(boundary, 2, 0.9)
	if cTight < 0.95 {
		t.Fatalf("tight-cluster certainty = %g, want near 1", cTight)
	}
	if cBoundary >= cTight {
		t.Fatalf("boundary certainty %g should be below tight certainty %g", cBoundary, cTight)
	}
}

func TestCertaintyEmptyDataIsOne(t *testing.T) {
	km := &KMeans{Centers: [][]float64{{0}}}
	if c := km.Certainty(nil, 2, 0.5); c != 1 {
		t.Fatalf("certainty of empty data = %g, want 1", c)
	}
}

// Property: every sample's assigned center is at least as close as any other
// center (the defining invariant of a Voronoi assignment).
func TestQuickAssignmentIsNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed uint8) bool {
		data, _ := blobs(rng, [][]float64{{0, 0}, {5, 0}, {0, 5}}, 15, 1.0)
		km, err := Fit(data, Config{K: 3, Seed: int64(seed)})
		if err != nil {
			return false
		}
		assign := km.Predict(data)
		for i, row := range data {
			dAssigned := sq(row, km.Centers[assign[i]])
			for _, c := range km.Centers {
				if sq(row, c) < dAssigned-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
