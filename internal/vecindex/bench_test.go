package vecindex

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchIndex populates idx with n 8-dimensional vectors in one cluster —
// the worst case for a per-cluster index, and the shape of a skewed
// experiment where most history lands in one regime.
func benchIndex(b *testing.B, idx Index, n int) []float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	for _, e := range randEntries(rng, n, 8, 1) {
		if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
			b.Fatal(err)
		}
	}
	q := make([]float64, 8)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	return q
}

// BenchmarkNearestFlat is the single-query search at partition sizes from
// 1,000 to 100,000 unclustered dim-8 vectors, where the radius window
// covers most of the partition.
func BenchmarkNearestFlat(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 50_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			idx := NewFlat()
			q := benchIndex(b, idx, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := idx.Nearest(0, q, nil); !ok {
					b.Fatal("no result")
				}
			}
		})
	}
}

// BenchmarkNearestRequest is the shape fairbench's serve_scan puts on the
// index: the 64 queries of one request, one after the other, against one
// partition — bare, and with the exclusion set a distinct draw or a
// router's exclude-and-requery round brings (one in eight IDs excluded).
func BenchmarkNearestRequest(b *testing.B) {
	for _, n := range []int{4_096, 16_384} {
		idx := NewFlat()
		benchIndex(b, idx, n)
		rng := rand.New(rand.NewSource(4))
		queries := make([][]float64, 64)
		for i := range queries {
			queries[i] = randVec(rng, 8)
		}
		excluded := make(map[string]bool)
		for i := 0; i < n; i += 8 {
			excluded[fmt.Sprintf("doc-%d", i)] = true
		}
		for _, tc := range []struct {
			name    string
			exclude func(string) bool
		}{
			{"bare", nil},
			{"excluding", func(id string) bool { return excluded[id] }},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						if _, ok := idx.Nearest(0, q, tc.exclude); !ok {
							b.Fatal("no result")
						}
					}
				}
			})
		}
	}
}

func BenchmarkAddFlat(b *testing.B) {
	idx := NewFlat()
	rng := rand.New(rand.NewSource(2))
	vecs := make([][]float64, 1024)
	for i := range vecs {
		v := make([]float64, 8)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		vecs[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := idx.Add(fmt.Sprintf("doc-%d", i), i%16, vecs[i%len(vecs)]); err != nil {
			b.Fatal(err)
		}
	}
}
