package dmsapi

import (
	"context"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
)

// benchIngestServer boots a fresh daemon-shaped server over TCP and
// bootstrap-fits it, so each benchmark iteration measures steady-state
// ingest rather than the one-time k-means fit. The data service uses the
// same autoencoder embedder a default dmsd runs (not the toy test
// embedder), so per-request embedding cost is the real thing.
func benchIngestServer(b *testing.B, docs []*codec.Sample) *Client {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	store := docstore.NewStore().Collection("peaks")
	emb := embed.Scaled{E: embed.NewAutoencoder(rng, docs[0].Elems(), 64, 8), Factor: 1.0 / 255}
	ds, err := fairds.New(emb, store, fairds.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		DS:         ds,
		Zoo:        benchZoo(b, 1, 4),
		BootstrapK: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Shutdown(context.Background()) })
	client, err := NewClient(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Close)
	if _, err := client.Ingest("bootstrap", docs[:32]); err != nil {
		b.Fatal(err)
	}
	return client
}

// benchDocs draws Bragg peak patches quantized to 8-bit counts — the form
// a real detector readout ships (cf. CookieRegime's quantization and
// dmsd's -embed-scale 1/255 flag for exactly this data).
func benchDocs(n int) []*codec.Sample {
	rng := rand.New(rand.NewSource(9))
	r := datagen.DefaultBraggRegime()
	r.Patch = 11
	docs := r.Generate(rng, n)
	for i, d := range docs {
		vals := d.Floats()
		maxV := 0.0
		for _, v := range vals {
			if v > maxV {
				maxV = v
			}
		}
		scale := 255 / maxV
		for j := range vals {
			vals[j] = vals[j] * scale
		}
		docs[i] = codec.SampleFromFloats(vals, d.Shape, codec.U8, d.Label)
	}
	return docs
}

// BenchmarkIngest1k is the acceptance benchmark for the batch ingest path:
// landing 1000 documents through 1000 serial single-doc requests vs one
// ingest:batch call. The batch path must be ≥ 5× faster end-to-end than
// the serial path (round-trip amortization, one embed pass and one store
// commit).
func BenchmarkIngest1k(b *testing.B) {
	const n = 1000
	docs := benchDocs(n)

	b.Run("serial", func(b *testing.B) {
		client := benchIngestServer(b, docs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				if _, err := client.Ingest("bench", docs[j:j+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("batch", func(b *testing.B) {
		client := benchIngestServer(b, docs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.IngestBatch("bench", docs)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Inserted != n {
				b.Fatalf("inserted %d, want %d", resp.Inserted, n)
			}
		}
	})
}
