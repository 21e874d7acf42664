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
// certainty, nearest, pdf and lookup requests of 15×15 patches with a 400
// on the first attempt — not a panic that drops the connection and reads
// as a transport failure the client retries — and the connection stays
// open for the next request.
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
	regime.Patch = 15
	big := FromCodecSlice(regime.Generate(rand.New(rand.NewSource(3)), 4))

	var conns, reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			conns.Add(1)
			if info.Reused {
				reused.Add(1)
			}
		},
	})
	for path, req := range map[string]any{
		PathCertainty: CertaintyRequest{Samples: big, Threshold: 0.5},
		PathNearest:   NearestRequest{Samples: big},
		PathPDF:       PDFRequest{Samples: big},
		PathLookup:    LookupRequest{Samples: big},
	} {
		body, err := EncodeBody(req)
		if err != nil {
			t.Fatal(err)
		}
		before := conns.Load()
		err = client.DoBody(ctx, "POST", path, body, nil)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.ErrCode != CodeBadRequest {
			t.Fatalf("%s with 15×15 patches: %v, want a 400 bad_request", path, err)
		}
		if n := conns.Load() - before; n != 1 {
			t.Fatalf("%s took %d attempts, want 1", path, n)
		}
	}
	var h HealthResponse
	if err := client.DoJSON(ctx, "GET", PathHealth, nil, &h); err != nil {
		t.Fatalf("/healthz after the refusals: %v", err)
	}
	// The ingest left its connection open; every request here reuses it.
	if conns.Load() != 5 || reused.Load() != 5 {
		t.Fatalf("%d connections taken, %d of them reused; want 5 and 5", conns.Load(), reused.Load())
	}
}
