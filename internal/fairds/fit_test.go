package fairds

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/fsx"
	"fairdms/internal/wal"
)

// namedEmbedder is idEmbedder with an identity.
type namedEmbedder struct {
	idEmbedder
	name string
}

func (e namedEmbedder) Identity() string { return e.name }

func openDurable(t *testing.T, dir string, fs fsx.FS) (*docstore.DurableStore, *docstore.Collection) {
	t.Helper()
	ds, err := docstore.OpenDurable(docstore.DurableOptions{Dir: dir, Policy: wal.SyncAlways, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, ds.Collection("peaks")
}

func mixed(seed int64, n int) []*codec.Sample {
	a, b := twoRegimes(seed, n)
	return append(a, b...)
}

// TestFitSurvivesReopen: a service opened over the directory a crashed one
// left behind is fitted — same K, same fit id, bit-identical centroids,
// the same answers — with no fit call; and again from a checkpoint.
func TestFitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ds, col := openDurable(t, dir, nil)
	svc, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if svc.FitID() != "" || svc.K() != 0 {
		t.Fatalf("a fresh service is fitted: k=%d fit=%q", svc.K(), svc.FitID())
	}
	batch := mixed(3, 30)
	x := mustCollate(t, batch)
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(batch, "scan"); err != nil {
		t.Fatal(err)
	}
	wantPDF, err := svc.DatasetPDF(x)
	if err != nil {
		t.Fatal(err)
	}
	ds.Abort()

	check := func(when string) *docstore.DurableStore {
		ds, col := openDurable(t, dir, nil)
		re, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if re.K() != 4 || re.FitID() == "" || re.FitID() != svc.FitID() {
			t.Fatalf("%s: k=%d fit=%q, want k=4 fit=%q", when, re.K(), re.FitID(), svc.FitID())
		}
		if !reflect.DeepEqual(re.Clusters().Centers, svc.Clusters().Centers) {
			t.Fatalf("%s: centroids differ", when)
		}
		pdf, err := re.DatasetPDF(x)
		if err != nil || !reflect.DeepEqual(pdf, wantPDF) {
			t.Fatalf("%s: PDF %v (%v), want %v", when, pdf, err, wantPDF)
		}
		if re.StoreCount() != len(batch) {
			t.Fatalf("%s: %d samples, want %d", when, re.StoreCount(), len(batch))
		}
		return ds
	}
	ds = check("after a crash")
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	check("from the checkpoint")
}

// TestRefitReplacesFitDocument: two fits with the same K on different
// batches are two fits — the id changes — and the store holds only the
// latest.
func TestRefitReplacesFitDocument(t *testing.T) {
	col := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(mustCollate(t, mixed(3, 30)), 4); err != nil {
		t.Fatal(err)
	}
	first := svc.FitID()
	if err := svc.FitClustersK(mustCollate(t, mixed(4, 30)), 4); err != nil {
		t.Fatal(err)
	}
	if svc.FitID() == first {
		t.Fatal("a refit on another batch kept the fit id")
	}
	if n := col.Sibling(fitSuffix).Count(); n != 1 {
		t.Fatalf("fit collection holds %d documents", n)
	}
	re, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if re.FitID() != svc.FitID() {
		t.Fatalf("a second service over the store has fit %q, want the latest %q", re.FitID(), svc.FitID())
	}

	// Fitted twice on the same batch under the same seed, two services
	// agree — what lets a router's shards compare ids.
	other, err := New(idEmbedder{dim: 6}, docstore.NewStore().Collection("elsewhere"), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.FitClustersK(mustCollate(t, mixed(4, 30)), 4); err != nil {
		t.Fatal(err)
	}
	if other.FitID() != svc.FitID() {
		t.Fatalf("same batch, same seed: fit %q and %q", other.FitID(), svc.FitID())
	}
}

// TestNewRefusesOtherEmbedder: a store fitted under one embedder identity
// does not open under another, and the error names both; an embedder with
// no identity skips the check.
func TestNewRefusesOtherEmbedder(t *testing.T) {
	col := docstore.NewStore().Collection("peaks")
	svc, err := New(namedEmbedder{idEmbedder{dim: 6}, "pooled seed=1"}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(mustCollate(t, mixed(3, 30)), 4); err != nil {
		t.Fatal(err)
	}
	_, err = New(namedEmbedder{idEmbedder{dim: 6}, "pooled seed=2"}, col, Config{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "pooled seed=1") || !strings.Contains(err.Error(), "pooled seed=2") {
		t.Fatalf("New under another embedder = %v; want an error naming both identities", err)
	}
	for _, name := range []string{"pooled seed=1", ""} {
		if _, err := New(namedEmbedder{idEmbedder{dim: 6}, name}, col, Config{Seed: 1}); err != nil {
			t.Fatalf("New under identity %q: %v", name, err)
		}
	}
	if _, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1}); err != nil {
		t.Fatalf("New under an embedder without an identity: %v", err)
	}
	if _, err := New(idEmbedder{dim: 3}, col, Config{Seed: 1}); err == nil {
		t.Fatal("New accepted centroids of another dimension than the embedder's")
	}
}

// TestNewRefusesMalformedFitDocument: a fit document whose centers are not
// k × dim values fails New with an error naming it and leaves the directory
// byte-for-byte as found — also when k × dim wraps around to the number of
// values held.
func TestNewRefusesMalformedFitDocument(t *testing.T) {
	for _, tc := range []struct {
		name    string
		k, dim  int64
		centers int
	}{
		{"short-centers", 4, 6, 23},
		{"k-times-dim-wraps", 1 << 61, 8, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ds, col := openDurable(t, dir, nil)
			if _, err := col.Sibling(fitSuffix).Insert(fitDocID, docstore.Fields{
				"fit": "beef", "k": tc.k, "dim": tc.dim, "centers": make([]float64, tc.centers), "fuzzifier": 2.0, "embedder": "",
			}); err != nil {
				t.Fatal(err)
			}
			ds.Close()

			ds, col = openDurable(t, dir, nil)
			before := readDir(t, dir)
			_, err := New(idEmbedder{dim: int(tc.dim)}, col, Config{Seed: 1})
			if err == nil || !strings.Contains(err.Error(), `"`+fitDocID+`"`) {
				t.Fatalf("New = %v; want an error naming the fit document", err)
			}
			ds.Abort()
			if !reflect.DeepEqual(before, readDir(t, dir)) {
				t.Fatal("a refused open changed the directory")
			}
		})
	}
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestFailedFitWriteKeepsPreviousFit: the fit document is written before
// the model is assigned, so a fit whose write fails leaves the service on
// the fit it had (here: none), and a retry once the disk works succeeds.
func TestFailedFitWriteKeepsPreviousFit(t *testing.T) {
	ffs := fsx.NewFaultFS(fsx.FaultPlan{})
	_, col := openDurable(t, t.TempDir(), ffs)
	svc, err := New(idEmbedder{dim: 6}, col, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := mustCollate(t, mixed(3, 30))
	ffs.FailWrites(true)
	if err := svc.FitClustersK(x, 4); !errors.Is(err, fsx.ErrInjectedWriteFailure) {
		t.Fatalf("fit over a failing disk = %v", err)
	}
	if svc.K() != 0 || svc.FitID() != "" {
		t.Fatalf("a failed fit was published: k=%d fit=%q", svc.K(), svc.FitID())
	}
	if _, err := svc.DatasetPDF(x); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("lookup after a failed fit = %v", err)
	}
	ffs.FailWrites(false)
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if svc.K() != 4 || svc.FitID() == "" {
		t.Fatalf("retry: k=%d fit=%q", svc.K(), svc.FitID())
	}
}

// TestBareWrapperKeepsFitInMemory: a store that exposes only the DataStore
// surface has no sibling to write to; the service fits and serves exactly
// as before, and a second service over it starts unfitted.
func TestBareWrapperKeepsFitInMemory(t *testing.T) {
	type bare struct{ DataStore }
	col := docstore.NewStore().Collection("peaks")
	svc, err := New(idEmbedder{dim: 6}, bare{col}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(mustCollate(t, mixed(3, 30)), 4); err != nil {
		t.Fatal(err)
	}
	if svc.K() != 4 || svc.FitID() == "" {
		t.Fatalf("k=%d fit=%q", svc.K(), svc.FitID())
	}
	if n := col.Sibling(fitSuffix).Count(); n != 0 {
		t.Fatalf("a bare wrapper wrote %d fit documents", n)
	}
	re, err := New(idEmbedder{dim: 6}, bare{col}, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if re.K() != 0 {
		t.Fatal("a second service over a bare wrapper started fitted")
	}
}

// FuzzOpenFitDocument writes arbitrary k, dim, width, centroid counts and
// embedder identities into a store's fit document (seed corpus in
// testdata/fuzz/FuzzOpenFitDocument) and opens a service over it: New
// returns a service holding k centroids or an error, and never panics.
func FuzzOpenFitDocument(f *testing.F) {
	f.Fuzz(func(t *testing.T, k, dim, width int64, centers uint16, embedder string) {
		col := docstore.NewStore().Collection("peaks")
		if _, err := col.Sibling(fitSuffix).Insert(fitDocID, docstore.Fields{
			"fit": "beef", "k": k, "dim": dim, "width": width,
			"centers": make([]float64, centers), "fuzzifier": 2.0, "embedder": embedder,
		}); err != nil {
			t.Fatal(err)
		}
		svc, err := New(namedEmbedder{idEmbedder{dim: 8}, "pooled seed=1"}, col, Config{Seed: 1})
		if err == nil && int64(svc.K()) != k {
			t.Fatalf("opened a fit of k=%d as %d centroids", k, svc.K())
		}
	})
}
