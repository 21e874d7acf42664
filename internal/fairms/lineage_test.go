package fairms

import (
	"math/rand"
	"testing"

	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

func lineageState(t *testing.T) *nn.StateDict {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return nn.Sequential(nn.NewLinear(rng, 3, 2)).State()
}

// TestLineageAccessors checks the typed readers over the reserved meta keys.
func TestLineageAccessors(t *testing.T) {
	z := NewZoo()
	pdf := stats.PDF{0.5, 0.5}
	if err := z.Add("child", lineageState(t), pdf, map[string]string{
		MetaParent:      "foundation-1",
		MetaEpochs:      "17",
		MetaConvergedAt: "9",
		MetaWarmStart:   "true",
	}); err != nil {
		t.Fatal(err)
	}
	if err := z.Add("orphan", lineageState(t), pdf, map[string]string{
		MetaEpochs:    "not-a-number",
		MetaWarmStart: "false",
	}); err != nil {
		t.Fatal(err)
	}

	child, err := z.Get("child")
	if err != nil {
		t.Fatal(err)
	}
	if got := child.Parent(); got != "foundation-1" {
		t.Fatalf("Parent() = %q, want foundation-1", got)
	}
	if n, ok := child.Epochs(); !ok || n != 17 {
		t.Fatalf("Epochs() = %d, %v", n, ok)
	}
	if e, ok := child.ConvergedAt(); !ok || e != 9 {
		t.Fatalf("ConvergedAt() = %d, %v", e, ok)
	}
	if !child.WarmStarted() {
		t.Fatal("WarmStarted() = false for a warm_start=true record")
	}

	orphan, err := z.Get("orphan")
	if err != nil {
		t.Fatal(err)
	}
	if got := orphan.Parent(); got != "" {
		t.Fatalf("Parent() = %q for a record without lineage", got)
	}
	if _, ok := orphan.Epochs(); ok {
		t.Fatal("Epochs() accepted a malformed value")
	}
	if _, ok := orphan.ConvergedAt(); ok {
		t.Fatal("ConvergedAt() reported ok with no entry")
	}
	if orphan.WarmStarted() {
		t.Fatal("WarmStarted() = true for warm_start=false")
	}
}

// TestLineageRoundTrip asserts the reserved keys survive the trip through a
// model document and back intact.
func TestLineageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, col := openStore(t, dir)
	z := openZoo(t, col)
	meta := map[string]string{
		MetaParent:      "braggnn-scan03",
		MetaEpochs:      "25",
		MetaConvergedAt: "12",
		MetaWarmStart:   "true",
		"custom":        "survives-too",
	}
	if err := z.Add("m", lineageState(t), stats.PDF{0.25, 0.75}, meta); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	_, col = openStore(t, dir)
	rec, err := openZoo(t, col).Get("m")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range meta {
		if rec.Meta[k] != v {
			t.Fatalf("meta %q = %q after round trip, want %q", k, rec.Meta[k], v)
		}
	}
	if rec.Parent() != "braggnn-scan03" || !rec.WarmStarted() {
		t.Fatalf("lineage accessors broken after round trip: %+v", rec.Meta)
	}
	if n, ok := rec.Epochs(); !ok || n != 25 {
		t.Fatalf("Epochs() = %d, %v after round trip", n, ok)
	}
	if e, ok := rec.ConvergedAt(); !ok || e != 12 {
		t.Fatalf("ConvergedAt() = %d, %v after round trip", e, ok)
	}
}
