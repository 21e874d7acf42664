// Package cluster implements the unsupervised grouping layer of fairDS:
// k-means++ clustering with parallel assignment, automatic cluster-count
// selection via the elbow method, and fuzzy c-means memberships for the
// uncertainty quantification that triggers embedding/clustering refresh
// (paper §II-A and §III-I).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairdms/internal/stats"
	"fairdms/internal/tensor"
)

// KMeans holds a fitted k-means model: K centroids in embedding space.
type KMeans struct {
	Centers [][]float64 // K × dim
	Inertia float64     // within-cluster sum of squared distances (WSS)
	Iters   int         // iterations until convergence
}

// Config controls a k-means fit.
type Config struct {
	K        int     // number of clusters (required)
	MaxIters int     // default 100
	Tol      float64 // center-movement convergence tolerance, default 1e-6
	Seed     int64   // for k-means++ seeding
}

// Fit runs k-means++ initialization followed by Lloyd iterations on data
// (n × dim rows). Assignment steps run in parallel across samples.
func Fit(data [][]float64, cfg Config) (*KMeans, error) {
	n := len(data)
	if cfg.K <= 0 {
		return nil, fmt.Errorf("cluster: K = %d must be positive", cfg.K)
	}
	if n < cfg.K {
		return nil, fmt.Errorf("cluster: %d samples < K = %d", n, cfg.K)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	dim := len(data[0])
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("cluster: row %d has %d features, row 0 has %d", i, len(row), dim)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := seedPlusPlus(data, cfg.K, rng)

	assign := make([]int, n)
	dists := make([]float64, n)
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		assignAll(data, centers, assign, dists)

		// Recompute centers.
		newCenters := make([][]float64, cfg.K)
		counts := make([]int, cfg.K)
		for k := range newCenters {
			newCenters[k] = make([]float64, dim)
		}
		for i, a := range assign {
			counts[a]++
			row := data[i]
			c := newCenters[a]
			for j := range c {
				c[j] += row[j]
			}
		}
		for k := range newCenters {
			if counts[k] == 0 {
				// Re-seed an empty cluster at the farthest point.
				far := argmax(dists)
				copy(newCenters[k], data[far])
				dists[far] = 0
				continue
			}
			inv := 1 / float64(counts[k])
			for j := range newCenters[k] {
				newCenters[k][j] *= inv
			}
		}

		// Convergence: max center movement below tolerance.
		moved := 0.0
		for k := range centers {
			d := tensor.SquaredDistance(centers[k], newCenters[k])
			if d > moved {
				moved = d
			}
		}
		centers = newCenters
		if moved < cfg.Tol*cfg.Tol {
			km := &KMeans{Centers: centers, Iters: iter}
			km.Inertia = km.wss(data, assign, dists)
			return km, nil
		}
	}
	km := &KMeans{Centers: centers, Iters: cfg.MaxIters}
	assignAll(data, centers, assign, dists)
	km.Inertia = km.wss(data, assign, dists)
	return km, nil
}

func (km *KMeans) wss(data [][]float64, assign []int, dists []float64) float64 {
	assignAll(data, km.Centers, assign, dists)
	s := 0.0
	for _, d := range dists {
		s += d
	}
	return s
}

// seedPlusPlus picks K initial centers with the k-means++ D² weighting.
func seedPlusPlus(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(data)
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, clone(data[first]))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = tensor.SquaredDistance(data[i], centers[0])
	}
	for len(centers) < k {
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var next int
		if total == 0 {
			next = rng.Intn(n) // all points coincide with a center
		} else {
			r := rng.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					next = i
					break
				}
			}
		}
		c := clone(data[next])
		centers = append(centers, c)
		for i := range d2 {
			if d := tensor.SquaredDistance(data[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}

// assignAll computes the nearest center for every sample in parallel,
// recording squared distances.
func assignAll(data [][]float64, centers [][]float64, assign []int, dists []float64) {
	tensor.ParallelFor(len(data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			best, bestK := math.Inf(1), 0
			for k, c := range centers {
				if d := tensor.SquaredDistance(data[i], c); d < best {
					best, bestK = d, k
				}
			}
			assign[i] = bestK
			dists[i] = best
		}
	})
}

// Predict returns the nearest-center index for each row of data.
func (km *KMeans) Predict(data [][]float64) []int {
	assign := make([]int, len(data))
	dists := make([]float64, len(data))
	assignAll(data, km.Centers, assign, dists)
	return assign
}

// K returns the number of clusters.
func (km *KMeans) K() int { return len(km.Centers) }

// PDF returns the cluster probability distribution of a dataset: the
// fraction of samples assigned to each cluster. This is the dataset
// signature fairDS computes and fairMS indexes models by.
func (km *KMeans) PDF(data [][]float64) stats.PDF {
	return stats.NewPDFFromAssignments(km.Predict(data), km.K())
}

// SelectK fits k-means for every k in [kMin, kMax] and picks the elbow of
// the WSS curve (the paper's YellowBrick-based automatic K selection).
// It returns the chosen k, the fitted model for it, and the WSS curve.
func SelectK(data [][]float64, kMin, kMax int, seed int64) (int, *KMeans, []float64, error) {
	if kMin < 1 || kMax < kMin {
		return 0, nil, nil, fmt.Errorf("cluster: invalid K range [%d, %d]", kMin, kMax)
	}
	if kMax-kMin+1 < 3 {
		return 0, nil, nil, errors.New("cluster: elbow selection needs at least 3 candidate K values")
	}
	var (
		wss    []float64
		ks     []float64
		models []*KMeans
	)
	for k := kMin; k <= kMax; k++ {
		km, err := Fit(data, Config{K: k, Seed: seed})
		if err != nil {
			return 0, nil, nil, err
		}
		models = append(models, km)
		wss = append(wss, km.Inertia)
		ks = append(ks, float64(k))
	}
	idx, err := stats.ElbowPoint(ks, wss)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("cluster: elbow detection: %w", err)
	}
	return kMin + idx, models[idx], wss, nil
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

func argmax(xs []float64) int {
	best, at := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, at = v, i
		}
	}
	return at
}
