package fairms

import (
	"math/rand"
	"testing"

	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

func dummyState(seed int64) *nn.StateDict {
	rng := rand.New(rand.NewSource(seed))
	return nn.Sequential(nn.NewLinear(rng, 2, 2)).State()
}

func TestAddValidations(t *testing.T) {
	z := NewZoo()
	good := stats.PDF{0.5, 0.5}
	if err := z.Add("", dummyState(1), good, nil); err == nil {
		t.Fatal("expected error for empty id")
	}
	if err := z.Add("m", nil, good, nil); err == nil {
		t.Fatal("expected error for nil state")
	}
	if err := z.Add("m", dummyState(1), stats.PDF{0.7, 0.7}, nil); err == nil {
		t.Fatal("expected error for invalid PDF")
	}
	if err := z.Add("m", dummyState(1), good, nil); err != nil {
		t.Fatal(err)
	}
	if err := z.Add("m", dummyState(2), good, nil); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	if z.Len() != 1 {
		t.Fatalf("Len = %d", z.Len())
	}
}

func TestAddCopiesPDF(t *testing.T) {
	z := NewZoo()
	pdf := stats.PDF{1, 0}
	if err := z.Add("m", dummyState(1), pdf, nil); err != nil {
		t.Fatal(err)
	}
	pdf[0] = 0.25 // caller mutation must not corrupt the zoo
	r, err := z.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainPDF[0] != 1 {
		t.Fatal("zoo stored an aliased PDF")
	}
}

func TestRankOrdersByJSD(t *testing.T) {
	z := NewZoo()
	z.Add("exact", dummyState(1), stats.PDF{0.6, 0.4}, nil)
	z.Add("close", dummyState(2), stats.PDF{0.5, 0.5}, nil)
	z.Add("far", dummyState(3), stats.PDF{0.02, 0.98}, nil)

	ranked, err := z.Rank(stats.PDF{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d", len(ranked))
	}
	if ranked[0].Record.ID != "exact" || ranked[2].Record.ID != "far" {
		t.Fatalf("order: %s, %s, %s", ranked[0].Record.ID, ranked[1].Record.ID, ranked[2].Record.ID)
	}
	if ranked[0].JSD != 0 {
		t.Fatalf("exact match JSD = %g", ranked[0].JSD)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].JSD < ranked[i-1].JSD {
			t.Fatal("ranking not ascending")
		}
	}
}

func TestRankSkipsIncompatiblePDFLengths(t *testing.T) {
	z := NewZoo()
	z.Add("old-gen", dummyState(1), stats.PDF{0.5, 0.3, 0.2}, nil)
	z.Add("new-gen", dummyState(2), stats.PDF{0.5, 0.5}, nil)
	ranked, err := z.Rank(stats.PDF{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].Record.ID != "new-gen" {
		t.Fatalf("ranked = %v", ranked)
	}
}

// TestRankFitSkipsOtherFits: two clusterings with the same K are still two
// clusterings. A record registered under one fit is not ranked against a
// PDF computed under another, whatever their lengths; a record or a query
// that names no fit falls back to the length rule.
func TestRankFitSkipsOtherFits(t *testing.T) {
	z := NewZoo()
	pdf := stats.PDF{0.5, 0.5}
	z.Add("under-a", dummyState(1), pdf, map[string]string{MetaFit: "fit-a"})
	z.Add("under-b", dummyState(2), pdf, map[string]string{MetaFit: "fit-b"})
	z.Add("unnamed", dummyState(3), pdf, nil)
	ids := func(fit string) []string {
		ranked, err := z.RankFit(fit, stats.PDF{0.4, 0.6})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range ranked {
			out = append(out, r.Record.ID)
		}
		return out
	}
	for fit, want := range map[string][]string{
		"fit-a": {"under-a", "unnamed"},
		"fit-b": {"under-b", "unnamed"},
		"fit-c": {"unnamed"},
		"":      {"under-a", "under-b", "unnamed"},
	} {
		if got := ids(fit); len(got) != len(want) {
			t.Errorf("RankFit(%q) = %v, want %v", fit, got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("RankFit(%q) = %v, want %v", fit, got, want)
				}
			}
		}
	}
	if r, _ := z.Get("under-a"); r.Fit() != "fit-a" {
		t.Fatalf("Fit() = %q", r.Fit())
	}
}

func TestRankRejectsInvalidQuery(t *testing.T) {
	z := NewZoo()
	if _, err := z.Rank(stats.PDF{2, 3}); err == nil {
		t.Fatal("expected error for invalid query PDF")
	}
}

func TestRecommendEmptyZoo(t *testing.T) {
	z := NewZoo()
	if _, err := z.Recommend(stats.PDF{1}); err == nil {
		t.Fatal("expected error for empty zoo")
	}
}

// TestRecommendWithThreshold runs the paper's distance threshold the way
// the trainer applies MaxJSD: warm-start from BestFit's model only when
// its JSD is within the threshold.
func TestRecommendWithThreshold(t *testing.T) {
	z := NewZoo()
	z.Add("far", dummyState(1), stats.PDF{0.02, 0.98}, nil)
	// Query nearly disjoint from the only model.
	q := stats.PDF{0.98, 0.02}
	if rec, ok, err := z.BestFit("", q); err != nil || !ok || rec.JSD <= 0.1 {
		t.Fatalf("threshold should have rejected the distant model: %+v ok=%v err=%v", rec, ok, err)
	}
	z.Add("near", dummyState(2), stats.PDF{0.9, 0.1}, nil)
	rec, ok, err := z.BestFit("", q)
	if err != nil || !ok || rec.JSD > 0.1 || rec.Record.ID != "near" {
		t.Fatalf("rec = %+v ok = %v err = %v", rec, ok, err)
	}
}

func TestBestMedianWorst(t *testing.T) {
	z := NewZoo()
	z.Add("a", dummyState(1), stats.PDF{0.5, 0.5}, nil)
	z.Add("b", dummyState(2), stats.PDF{0.7, 0.3}, nil)
	z.Add("c", dummyState(3), stats.PDF{0.05, 0.95}, nil)
	best, median, worst, err := z.BestMedianWorst(stats.PDF{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if best.Record.ID != "a" || worst.Record.ID != "c" {
		t.Fatalf("best=%s median=%s worst=%s", best.Record.ID, median.Record.ID, worst.Record.ID)
	}
	if best.JSD > median.JSD || median.JSD > worst.JSD {
		t.Fatal("B/M/W not ordered")
	}
	if _, _, _, err := NewZoo().BestMedianWorst(stats.PDF{1}); err == nil {
		t.Fatal("expected error for empty zoo")
	}
}

func TestMetaIsCopied(t *testing.T) {
	z := NewZoo()
	meta := map[string]string{"app": "braggnn"}
	z.Add("m", dummyState(1), stats.PDF{1}, meta)
	meta["app"] = "mutated"
	r, _ := z.Get("m")
	if r.Meta["app"] != "braggnn" {
		t.Fatal("zoo stored aliased metadata")
	}
}
