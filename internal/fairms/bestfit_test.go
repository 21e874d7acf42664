package fairms

import (
	"fmt"
	"math/rand"
	"testing"

	"fairdms/internal/stats"
)

// TestBestFitIsRankFitFirst: on random zoos — PDFs drawn from a small set
// so that JSDs tie, records under three fit ids and none, PDFs of the
// wrong length — BestFit returns RankFit's first entry, the same record
// and the same JSD bits, for every query fit; and reports ok=false exactly
// when RankFit is empty, an empty zoo included.
func TestBestFitIsRankFitFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	state := dummyState(1)
	shared := []stats.PDF{{0.5, 0.5, 0}, {0.2, 0.3, 0.5}, {1, 0, 0}, {0, 0, 1}}
	fits := []string{"", "fit-a", "fit-b", "fit-c"}
	for trial := range 200 {
		z := NewZoo()
		for i := range rng.Intn(24) {
			var pdf stats.PDF
			switch rng.Intn(5) {
			case 0:
				pdf = stats.PDF{0.25, 0.75} // wrong length for the query
			case 1:
				pdf = stats.NewPDFFromCounts([]int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}, 3)
			default:
				pdf = shared[rng.Intn(len(shared))]
			}
			var meta map[string]string
			if fit := fits[rng.Intn(len(fits))]; fit != "" {
				meta = map[string]string{MetaFit: fit}
			}
			if err := z.Add(fmt.Sprintf("m%02d", i), state, pdf, meta); err != nil {
				t.Fatal(err)
			}
		}
		query := shared[rng.Intn(len(shared))]
		for _, fit := range fits {
			ranked, err := z.RankFit(fit, query)
			if err != nil {
				t.Fatal(err)
			}
			best, ok, err := z.BestFit(fit, query)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (len(ranked) > 0) {
				t.Fatalf("trial %d fit %q: BestFit ok=%v with %d ranked", trial, fit, ok, len(ranked))
			}
			if ok && (best.Record != ranked[0].Record || best.JSD != ranked[0].JSD) {
				t.Fatalf("trial %d fit %q: BestFit = %s at %v, RankFit first = %s at %v",
					trial, fit, best.Record.ID, best.JSD, ranked[0].Record.ID, ranked[0].JSD)
			}
		}
	}
}

// TestBestFitKeepsFirstOfTies: of equally close models the first
// registered wins, as in RankFit's stable order.
func TestBestFitKeepsFirstOfTies(t *testing.T) {
	z := NewZoo()
	z.Add("far", dummyState(1), stats.PDF{0, 1}, nil)
	z.Add("first", dummyState(2), stats.PDF{0.5, 0.5}, nil)
	z.Add("second", dummyState(3), stats.PDF{0.5, 0.5}, nil)
	best, ok, err := z.BestFit("", stats.PDF{0.5, 0.5})
	if err != nil || !ok || best.Record.ID != "first" {
		t.Fatalf("BestFit = %+v, %v, %v; want first", best, ok, err)
	}
	if _, _, err := z.BestFit("", stats.PDF{0.7, 0.7}); err == nil {
		t.Fatal("an invalid query PDF was accepted")
	}
}

// TestBestFitAllocatesNothing: a recommend over a zoo costs one divergence
// per model and no garbage.
func TestBestFitAllocatesNothing(t *testing.T) {
	z := NewZoo()
	rng := rand.New(rand.NewSource(22))
	for i := range 64 {
		counts := make([]int, 8)
		for j := range counts {
			counts[j] = rng.Intn(10)
		}
		z.Add(fmt.Sprintf("m%02d", i), dummyState(1), stats.NewPDFFromCounts(counts, 8), map[string]string{MetaFit: "f"})
	}
	query := stats.NewPDFFromCounts([]int{1, 2, 3, 4, 5, 6, 7, 8}, 8)
	if got := testing.AllocsPerRun(50, func() { z.BestFit("f", query) }); got != 0 {
		t.Errorf("BestFit makes %.0f allocations, want 0", got)
	}
}
