package dmsapi

import (
	"errors"
	"net/http"
	"testing"

	"fairdms/internal/docstore"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/fsx"
	"fairdms/internal/stats"
	"fairdms/internal/wal"
)

// TestHealthReportsFit: /healthz carries the fit id — empty while
// unfitted, the data service's own afterwards — and a registered model is
// stamped with it whatever the client sent under that key.
func TestHealthReportsFit(t *testing.T) {
	svc := newDataService(t)
	_, client := startServer(t, ServerConfig{DS: svc})
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Fit != "" || h.K != 0 {
		t.Fatalf("unfitted server reports k=%d fit=%q", h.K, h.Fit)
	}
	a, _ := twoRegimes(21, 24)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	if h, err = client.Health(); err != nil {
		t.Fatal(err)
	}
	if h.Fit == "" || h.Fit != svc.FitID() {
		t.Fatalf("/healthz fit = %q, the data service's %q", h.Fit, svc.FitID())
	}
	pdf, err := client.PDF(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddModel("m", dummyState(1), pdf, map[string]string{fairms.MetaFit: "forged", "app": "bragg"}); err != nil {
		t.Fatal(err)
	}
	models, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Meta[fairms.MetaFit] != h.Fit || models[0].Meta["app"] != "bragg" {
		t.Fatalf("registered model lists as %+v, want fit %q", models, h.Fit)
	}
}

// TestRecommendSkipsModelsOfAnotherFit: two servers fitted with the same K
// on different batches share one zoo (the state a daemon restarted over an
// old zoo used to be in). A model registered through the first is ranked
// against the first's PDFs only: the second answers OK=false rather than
// compare histograms over centroids the model never saw.
func TestRecommendSkipsModelsOfAnotherFit(t *testing.T) {
	zoo := fairms.NewZoo()
	_, first := startServer(t, ServerConfig{Zoo: zoo})
	_, second := startServer(t, ServerConfig{Zoo: zoo})
	a, b := twoRegimes(23, 24)
	if _, err := first.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Ingest("regime-b", b); err != nil {
		t.Fatal(err)
	}
	h1, _ := first.Health()
	h2, _ := second.Health()
	if h1.K != h2.K || h1.Fit == h2.Fit {
		t.Fatalf("want the same K under two fits, got k=%d/%d fit=%q/%q", h1.K, h2.K, h1.Fit, h2.Fit)
	}
	pdf, err := first.PDF(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.AddModel("under-first", dummyState(1), pdf, nil); err != nil {
		t.Fatal(err)
	}
	if rec, err := first.Recommend(pdf, 0); err != nil || !rec.OK || rec.ID != "under-first" {
		t.Fatalf("under its own fit: %+v, %v", rec, err)
	}
	if rec, err := second.Recommend(pdf, 0); err != nil || rec.OK {
		t.Fatalf("under another fit with the same K: %+v, %v; want no recommendation", rec, err)
	}
}

// TestModelStoreFailureIsInternalError: a model whose document cannot be
// written is a 500 — the request was well-formed — the zoo does not list
// it, and the same request succeeds once the disk takes writes again.
func TestModelStoreFailureIsInternalError(t *testing.T) {
	ffs := fsx.NewFaultFS(fsx.FaultPlan{})
	ds, err := docstore.OpenDurable(docstore.DurableOptions{Dir: t.TempDir(), Policy: wal.SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	col := ds.Collection("peaks")
	svc, err := fairds.New(idEmbedder{dim: 6}, col, fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	zoo, err := fairms.OpenZoo(col.Sibling(".zoo"))
	if err != nil {
		t.Fatal(err)
	}
	_, client := startServer(t, ServerConfig{DS: svc, Zoo: zoo})

	ffs.FailWrites(true)
	err = client.AddModel("m", dummyState(1), stats.PDF{0.5, 0.5}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("AddModel over a failing disk = %v; want a 500", err)
	}
	if models, err := client.Models(); err != nil || len(models) != 0 {
		t.Fatalf("the failed model is listed: %+v, %v", models, err)
	}
	ffs.FailWrites(false)
	if err := client.AddModel("m", dummyState(1), stats.PDF{0.5, 0.5}, nil); err != nil {
		t.Fatalf("retry after the fault cleared: %v", err)
	}
	if models, err := client.Models(); err != nil || len(models) != 1 || models[0].ID != "m" {
		t.Fatalf("after the retry: %+v, %v", models, err)
	}
}
