package dmsapi

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"testing"

	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
)

// TestOtherWidthIsABadRequest: a daemon that ingested 11×11 patches, over
// the dmsd embedder shape whose first layer takes 121 inputs, answers
// certainty, nearest, pdf, lookup and ingest requests of 15×15 patches,
// or of a mixed batch that leads with an 11×11 one, with a 400 on the
// first attempt: not a panic that drops the connection and reads as a
// transport failure the client retries, and not a 500. The connection
// stays open for the next request, and the store takes none of them.
func TestOtherWidthIsABadRequest(t *testing.T) {
	ae := embed.NewAutoencoder(rand.New(rand.NewSource(1)), 121, 16, 6)
	ds, err := fairds.New(embed.Scaled{E: ae, Factor: 1.0 / 64}, docstore.NewStore().Collection("peaks"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, ServerConfig{DS: ds})
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 11
	if _, err := client.Ingest("small", regime.Generate(rand.New(rand.NewSource(2)), 24)); err != nil {
		t.Fatal(err)
	}
	mixed := regime.Generate(rand.New(rand.NewSource(4)), 1)
	regime.Patch = 15
	big := regime.Generate(rand.New(rand.NewSource(3)), 4)
	mixed = append(mixed, big...)

	var conns, reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			conns.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	for name, samples := range map[string][]Sample{
		"15×15 patches": FromCodecSlice(big),
		"a mixed batch": FromCodecSlice(mixed),
	} {
		for path, req := range map[string]any{
			PathCertainty: CertaintyRequest{Samples: samples, Threshold: 0.5},
			PathNearest:   NearestRequest{Samples: samples},
			PathPDF:       PDFRequest{Samples: samples},
			PathLookup:    LookupRequest{Samples: samples},
			PathIngest:    IngestRequest{Dataset: "other", Samples: samples},
		} {
			body, err := EncodeBody(req)
			if err != nil {
				t.Fatal(err)
			}
			before := conns.Load()
			err = client.DoBody(ctx, "POST", path, body, nil)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.ErrCode != CodeBadRequest {
				t.Fatalf("%s with %s: %v, want a 400 bad_request", path, name, err)
			}
			if n := conns.Load() - before; n != 1 {
				t.Fatalf("%s with %s took %d attempts, want 1", path, name, n)
			}
		}
	}
	var h HealthResponse
	if err := client.DoJSON(ctx, "GET", PathHealth, nil, &h); err != nil {
		t.Fatalf("/healthz after the refusals: %v", err)
	}
	if h.Samples != 24 {
		t.Fatalf("the store holds %d samples after the refusals, want 24", h.Samples)
	}
	// The ingest left its connection open; every request here reuses it.
	if conns.Load() != 11 || reused.Load() != 11 {
		t.Fatalf("%d connections taken, %d of them reused; want 11 and 11", conns.Load(), reused.Load())
	}
}
