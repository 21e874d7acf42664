package fairds

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
)

// patches returns n Bragg patches of the given side.
func patches(seed int64, side, n int) []*codec.Sample {
	r := datagen.DefaultBraggRegime()
	r.Patch = side
	return r.Generate(rand.New(rand.NewSource(seed)), n)
}

// wantWidthError fails unless err is a *WidthError for got-element samples
// against a want-element service.
func wantWidthError(t *testing.T, op string, err error, got, want int) {
	t.Helper()
	var we *WidthError
	if !errors.As(err, &we) || we.Got != got || we.Want != want {
		t.Fatalf("%s: err = %v, want a *WidthError for %d elements against %d", op, err, got, want)
	}
}

// TestOtherWidthIsRefusedBeforeTheEmbedder is the regression for a request
// of another sample width: a service fitted and ingested with 11×11
// patches, over an embedder whose first layer takes 121 inputs, answers
// 15×15 patches on every path with a *WidthError instead of letting the
// embedder panic; a batch ingest reports them per document and commits the
// rest.
func TestOtherWidthIsRefusedBeforeTheEmbedder(t *testing.T) {
	ae := embed.NewAutoencoder(rand.New(rand.NewSource(1)), 121, 16, 6)
	svc, err := New(embed.Scaled{E: ae, Factor: 1.0 / 64}, docstore.NewStore().Collection("peaks"), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small := patches(2, 11, 24)
	if err := svc.FitClustersK(mustCollate(t, small), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(small, "small"); err != nil {
		t.Fatal(err)
	}

	big := patches(3, 15, 4)
	x := mustCollate(t, big)
	_, err = svc.Certainty(x, 0.5)
	wantWidthError(t, "certainty", err, 225, 121)
	_, err = svc.DatasetPDF(x)
	wantWidthError(t, "pdf", err, 225, 121)
	_, err = svc.LookupLabeled(x)
	wantWidthError(t, "lookup", err, 225, 121)
	_, err = svc.NearestMatches(big, false)
	wantWidthError(t, "nearest", err, 225, 121)
	_, err = svc.IngestLabeled(big, "big")
	wantWidthError(t, "ingest", err, 225, 121)
	wantWidthError(t, "refit", svc.FitClustersK(x, 3), 225, 121)

	res, err := svc.IngestLabeledBatchContext(context.Background(), append([]*codec.Sample{big[0]}, small[:3]...), "mixed", BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted() != 3 || len(res.Errors) != 1 || res.Errors[0].Index != 0 {
		t.Fatalf("mixed batch: %+v, want the three 11×11 patches in and the 15×15 one refused", res)
	}
	wantWidthError(t, "batch", res.Errors[0].Err, 225, 121)

	if _, err := svc.Certainty(mustCollate(t, small), 0.5); err != nil {
		t.Fatalf("the service's own width after the refusals: %v", err)
	}
}

// TestWidthIsKeptWithTheFit: a service opened over a store fitted with
// 11×11 patches refuses 15×15 ones at once; one opened over a fit
// document that predates the width field opens, and takes its width from
// its first ingest.
func TestWidthIsKeptWithTheFit(t *testing.T) {
	col := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, big := patches(4, 11, 24), patches(5, 15, 4)
	if err := svc.FitClustersK(mustCollate(t, small), 3); err != nil {
		t.Fatal(err)
	}
	re, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = re.Certainty(mustCollate(t, big), 0.5)
	wantWidthError(t, "reopened", err, 225, 121)

	svc, err = New(idEmbedder{dim: 6}, legacyFit(t), Config{Seed: 1})
	if err != nil {
		t.Fatalf("a fit document without a width: %v", err)
	}
	if _, err := svc.Certainty(mustCollate(t, big), 0.5); err != nil {
		t.Fatalf("a service without a width refused a read: %v", err)
	}
	if _, err := svc.IngestLabeled(small, "small"); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Certainty(mustCollate(t, big), 0.5)
	wantWidthError(t, "after the first ingest", err, 225, 121)
}

// legacyFit returns a collection whose fit document predates the width
// field: two 6-dimensional centers and no recorded embedder.
func legacyFit(t *testing.T) *docstore.Collection {
	t.Helper()
	col := docstore.NewStore().Collection("peaks")
	if _, err := col.Sibling(fitSuffix).ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnAdd, ID: fitDocID, F: docstore.Fields{
		"fit": "beef", "k": 2, "dim": 6, "centers": make([]float64, 12), "fuzzifier": 2.0, "embedder": "",
	}}}); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestFailedFirstIngestClaimsNoWidth: a service without a width keeps none
// after a first ingest that never got through the embedder — a mixed-width
// one the ingest checks refuse, a wrong-width one the embedder panics on — and
// takes its real width from the next ingest, by either ingest path; reads
// and a reindex of that width then work.
func TestFailedFirstIngestClaimsNoWidth(t *testing.T) {
	ae := embed.NewAutoencoder(rand.New(rand.NewSource(1)), 121, 16, 6)
	small, big := patches(6, 11, 24), patches(7, 15, 4)
	for _, batch := range []bool{false, true} {
		svc, err := New(embed.Scaled{E: ae, Factor: 1.0 / 64}, legacyFit(t), Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.IngestLabeled(append([]*codec.Sample{big[0]}, small[:3]...), "mixed"); err == nil {
			t.Fatal("a mixed-width ingest went in")
		}
		func() {
			defer func() { recover() }()
			svc.IngestLabeled(big, "big")
			t.Fatal("the 121-input embedder took 225-element samples")
		}()

		if batch {
			res, err := svc.IngestLabeledBatchContext(context.Background(), small, "small", BatchOptions{})
			if err != nil || len(res.Errors) > 0 {
				t.Fatalf("batch ingest of the real width: %v %v", res.Errors, err)
			}
		} else if _, err := svc.IngestLabeled(small, "small"); err != nil {
			t.Fatalf("ingest of the real width: %v", err)
		}
		if _, err := svc.Certainty(mustCollate(t, small), 0.5); err != nil {
			t.Fatalf("batch=%v: a read of the real width: %v", batch, err)
		}
		if _, err := svc.Reindex(svc.Embedder(), 2); err != nil {
			t.Fatalf("batch=%v: reindex: %v", batch, err)
		}
		_, err = svc.Certainty(mustCollate(t, big), 0.5)
		wantWidthError(t, "after the real ingest", err, 225, 121)
	}
}
