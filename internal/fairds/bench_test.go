package fairds

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/tensor"
)

// benchService builds a fitted service over n historical samples — the
// scalability axis the paper defers to future work (§IV): how lookup cost
// grows with store size.
func benchService(b *testing.B, n int) (*Service, []*codec.Sample) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 9
	hist := regime.Generate(rng, n)
	x, err := Collate(hist)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := New(benchEmbedder{dim: 8}, docstore.NewStore().Collection("bench"), Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.FitClustersK(x, 8); err != nil {
		b.Fatal(err)
	}
	if _, err := svc.IngestLabeled(hist, "bench"); err != nil {
		b.Fatal(err)
	}
	query := regime.Generate(rng, 64)
	return svc, query
}

// benchEmbedder is a cheap deterministic embedding for benchmarks.
type benchEmbedder struct{ dim int }

func (e benchEmbedder) Dim() int { return e.dim }
func (e benchEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), e.dim)
	feats := x.Dim(1)
	chunk := (feats + e.dim - 1) / e.dim
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		for d := 0; d < e.dim; d++ {
			lo, hi := d*chunk, (d+1)*chunk
			if hi > feats {
				hi = feats
			}
			s := 0.0
			for _, v := range row[lo:hi] {
				s += v
			}
			if hi > lo {
				out.Set(s/float64(hi-lo), i, d)
			}
		}
	}
	return out
}

func benchLookup(b *testing.B, n int) {
	svc, query := benchService(b, n)
	qx, err := Collate(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.LookupLabeled(qx); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "store-size")
}

func BenchmarkLookupLabeled1k(b *testing.B) { benchLookup(b, 1000) }
func BenchmarkLookupLabeled4k(b *testing.B) { benchLookup(b, 4000) }

// BenchmarkLookupLabeled32k is the serve_scan shape: a 64-sample lookup
// over a 32k store, where a draw that lists its cluster costs the corpus.
func BenchmarkLookupLabeled32k(b *testing.B) { benchLookup(b, 32768) }

// BenchmarkNearest is a one-sample nearest search (match only, no payload
// fetch) at store sizes 1k/10k/50k: one probe of the in-process vector
// index.
func BenchmarkNearest(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1_000, 10_000, 50_000} {
		b.Run(fmt.Sprintf("flat/n=%d", n), func(b *testing.B) {
			svc, query := benchService(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := i % len(query)
				if _, err := svc.NearestMatchesExcluding(ctx, query[q:q+1], false, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "store-size")
		})
	}
}

// BenchmarkNearestMatches is the serve_scan request: 64 samples against a
// 32k corpus in 8 clusters (~4k-vector partitions).
func BenchmarkNearestMatches(b *testing.B) {
	svc, query := benchService(b, 32_768)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.NearestMatches(query, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestMatchesServed is serve_scan's nearest request on the
// data and embedder dmsd serves it with: 32,768 patch-11 Bragg samples,
// embedded by the untrained autoencoder (hidden 64, dim 8, seed 1),
// clustered with k 8 fit on the first 256-sample batch and ingested in
// such batches, queried 64 samples at a time. It reports the distances a
// query computes; BenchmarkNearestMatches's benchEmbedder data is the
// shape where the radius window prunes least.
func BenchmarkNearestMatchesServed(b *testing.B) {
	const batch = 256
	rng := rand.New(rand.NewSource(1))
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 11
	hist := regime.Generate(rng, 32_768)
	e := embed.NewAutoencoder(rand.New(rand.NewSource(1)), regime.Patch*regime.Patch, 64, 8)
	svc, err := New(e, docstore.NewStore().Collection("bench"), Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x, err := Collate(hist[:batch])
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.FitClustersK(x, 8); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < len(hist); lo += batch {
		if _, err := svc.IngestLabeled(hist[lo:lo+batch], "bench"); err != nil {
			b.Fatal(err)
		}
	}
	queries := make([][]*codec.Sample, 16)
	for i := range queries {
		queries[i] = regime.Generate(rng, 64)
	}
	before := svc.IndexStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.NearestMatches(queries[i%len(queries)], false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := svc.IndexStats()
	b.ReportMetric(float64(after.Probed-before.Probed)/float64(after.Hits-before.Hits), "probed/query")
}

func BenchmarkDatasetPDF(b *testing.B) {
	svc, query := benchService(b, 1000)
	qx, err := Collate(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.DatasetPDF(qx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIngestLabeled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 9
	batch := regime.Generate(rng, 128)
	svc, _ := benchService(b, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.IngestLabeled(batch, fmt.Sprintf("b%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}

// lookup512Fixture is update_cycle's labelled corpus and one of its
// lookups, on the embedder dmsd serves: 16 scans of 512 15×15 f32 Bragg
// patches (8,192 documents) along datagen's drift schedule, embedded by
// embed.Scaled over the untrained autoencoder 225→64→8 (factor 1, seed 1),
// clustered with k 8 fit on the first 256-sample batch and ingested in such
// batches, and 512 unlabelled samples of the first drifted scan.
func lookup512Fixture(tb testing.TB) (*Service, *tensor.Tensor) {
	tb.Helper()
	const scans, scanDocs, batch = 16, 512, 256
	sched := datagen.DefaultBraggDrift(scans)
	rng := rand.New(rand.NewSource(1))
	e := embed.Scaled{E: embed.NewAutoencoder(rand.New(rand.NewSource(1)), 225, 64, 8), Factor: 1}
	svc, err := New(e, docstore.NewStore().Collection("bench"), Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < scans; i++ {
		scan := sched.RegimeAt(i).Generate(rng, scanDocs)
		for lo := 0; lo < len(scan); lo += batch {
			if i == 0 && lo == 0 {
				x, err := Collate(scan[:batch])
				if err != nil {
					tb.Fatal(err)
				}
				if err := svc.FitClustersK(x, 8); err != nil {
					tb.Fatal(err)
				}
			}
			if _, err := svc.IngestLabeled(scan[lo:lo+batch], fmt.Sprintf("scan-%02d", i)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	qx, err := Collate(sched.RegimeAt(scans).Generate(rng, 512))
	if err != nil {
		tb.Fatal(err)
	}
	return svc, qx
}

// BenchmarkLookupLabeled512 is update_cycle's pseudo-labelling lookup
// (lookup512Fixture): a draw of 512 documents, their fetch and decode.
func BenchmarkLookupLabeled512(b *testing.B) {
	svc, qx := lookup512Fixture(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := svc.LookupLabeled(qx); err != nil {
			b.Fatal(err)
		}
	}
}
