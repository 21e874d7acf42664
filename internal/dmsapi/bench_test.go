package dmsapi

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

// benchZoo builds a zoo of n models with k-bin training PDFs — large enough
// that ranking (O(n·k) JSD + sort) dominates a recommend request.
func benchZoo(b *testing.B, n, k int) *fairms.Zoo {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	state := nn.Sequential(nn.NewLinear(rng, 2, 2)).State() // weights don't matter for ranking
	zoo := fairms.NewZoo()
	for i := 0; i < n; i++ {
		pdf := make(stats.PDF, k)
		total := 0.0
		for j := range pdf {
			pdf[j] = rng.Float64()
			total += pdf[j]
		}
		for j := range pdf {
			pdf[j] /= total
		}
		if err := zoo.Add(fmt.Sprintf("m%04d", i), state, pdf, nil); err != nil {
			b.Fatal(err)
		}
	}
	return zoo
}

func benchQuery(k int) stats.PDF {
	pdf := make(stats.PDF, k)
	for j := range pdf {
		pdf[j] = 1 / float64(k)
	}
	return pdf
}

// BenchmarkRecommend measures recommend throughput over real TCP with the
// coalescing LRU enabled vs disabled. Many concurrent training jobs asking
// for the same dataset signature is exactly the hot pattern the cache
// exists for: the cached path answers from the LRU, the uncached path
// re-ranks the whole zoo per request.
func BenchmarkRecommend(b *testing.B) {
	const nModels, kBins = 2048, 128
	for _, bench := range []struct {
		name      string
		cacheSize int
	}{
		{"uncached", -1}, // memoization off; each request ranks the zoo
		{"cached", 256},
	} {
		b.Run(bench.name, func(b *testing.B) {
			srv, err := NewServer(ServerConfig{
				DS:         benchDataService(b),
				Zoo:        benchZoo(b, nModels, kBins),
				CacheSize:  bench.cacheSize,
				BootstrapK: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown(context.Background())
			client, err := NewClient(addr)
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()

			query := benchQuery(kBins)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := client.Recommend(query, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !rec.OK {
					b.Fatal("no recommendation")
				}
			}
		})
	}
}

// BenchmarkRecommendRank isolates the server-side compute the cache
// avoids, for comparison against the full HTTP numbers above.
func BenchmarkRecommendRank(b *testing.B) {
	zoo := benchZoo(b, 2048, 128)
	query := benchQuery(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zoo.Recommend(query); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDataService(b *testing.B) *fairds.Service {
	b.Helper()
	store := docstore.NewStore().Collection("peaks")
	svc, err := fairds.New(idEmbedder{dim: 6}, store, fairds.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}
