package experiments

import (
	"strings"
	"testing"
	"time"

	"fairdms/internal/tensor"
)

func TestFig02DegradationShape(t *testing.T) {
	res, err := Fig02(Fig02Config{
		NumDatasets: 10, PerDataset: 40, DriftAt: 6, TrainOn: 3,
		TrainEpochs: 25, MCSamples: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// Paper shape: error degrades sharply after the drift.
	if rise := res.ErrorRise(); rise < 1.3 {
		t.Fatalf("post-drift error rise %.2f×, want >= 1.3×", rise)
	}
	// Uncertainty rises alongside error (right axis of Fig. 2).
	if rise := res.UncertaintyRise(); rise <= 1.0 {
		t.Fatalf("post-drift uncertainty rise %.2f×, want > 1×", rise)
	}
	if !strings.Contains(res.Table(), "POST-DRIFT") {
		t.Fatal("table missing drift annotation")
	}
}

func TestStorageSweepShapes(t *testing.T) {
	res, err := StorageSweep(StorageConfig{
		Kind: StorageBragg, Samples: 96,
		BatchSizes: []int{8, 32}, Workers: []int{1, 8},
		FixedWorkers: 4, FixedBatch: 16,
		Dir: t.TempDir(), Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("got %d series", len(res.Series))
	}
	for _, s := range res.Series {
		// (a) Larger batches never make the epoch dramatically slower
		// (per-batch overhead amortizes). Wall-clock epochs are noisy
		// under parallel-test CPU contention, so the margin is loose;
		// the worker sweep below carries the precise shape claim.
		if s.EpochTime[1] > s.EpochTime[0]*5 {
			t.Fatalf("%s: epoch time grew sharply with batch size: %v -> %v",
				s.Backend, s.EpochTime[0], s.EpochTime[1])
		}
		if len(s.IOPerIter) != 2 {
			t.Fatalf("%s: missing worker sweep", s.Backend)
		}
	}
	// (b) For the remote store backends, more workers reduce per-iteration
	// time (parallel fetch hides round trips) — the paper's Fig. 8b shape.
	for _, s := range res.Series {
		if s.Backend == "nfs" {
			continue
		}
		if s.IOPerIter[1] >= s.IOPerIter[0] {
			t.Fatalf("%s: workers did not reduce I/O time: %v -> %v",
				s.Backend, s.IOPerIter[0], s.IOPerIter[1])
		}
	}
	if !strings.Contains(res.Table(), "epoch-time") {
		t.Fatal("table malformed")
	}
}

func TestFig09LabelReuseQuality(t *testing.T) {
	res, err := Fig09(Fig09Config{
		Historical: 160, NewSamples: 60, TrainEpochs: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Some labels must be reused for the experiment to be meaningful.
	if res.Reused == 0 {
		t.Fatal("no labels reused — threshold calibration broken")
	}
	// Paper shape: the two models perform equivalently (P50 within 2×).
	if res.FairP50 > 2*res.ConvP50+0.2 {
		t.Fatalf("fairDS-labeled model much worse: P50 %.3f vs %.3f", res.FairP50, res.ConvP50)
	}
	// And labeling is cheaper (paper: hour → minute). Uncontended runs
	// measure ~8× here; under parallel-test CPU contention the wall-clock
	// gap compresses, so the test only requires a clear win — the figure
	// (`go run ./cmd/experiments -fig 9`) reports the full factor.
	if res.Speedup() < 1.05 {
		t.Fatalf("labeling speedup %.2f×, want > 1×", res.Speedup())
	}
	if res.ConvP50 <= 0 || res.ConvP95 < res.ConvP75 || res.ConvP75 < res.ConvP50 {
		t.Fatalf("percentiles inconsistent: %+v", res)
	}
}

func TestErrVsJSDBraggPositiveCorrelation(t *testing.T) {
	res, err := ErrVsJSD(ErrJSDConfig{
		App: AppBragg, ZooModels: 6, TestDatasets: 2, PerDataset: 120, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("got %d series", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 6 {
			t.Fatalf("series has %d points", len(s.Points))
		}
	}
	// Paper shape: error and JSD positively correlated.
	if r := res.MeanCorrelation(); r < 0.2 {
		t.Fatalf("mean correlation %.3f, want clearly positive", r)
	}
}

func TestErrVsJSDCookieMonotone(t *testing.T) {
	res, err := ErrVsJSD(ErrJSDConfig{
		App: AppCookie, ZooModels: 5, TestDatasets: 2, PerDataset: 30, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 11 is near-monotone thanks to the gradual drift.
	if r := res.MeanCorrelation(); r < 0.3 {
		t.Fatalf("cookie mean correlation %.3f, want strongly positive", r)
	}
}

func TestFig12PDFComparison(t *testing.T) {
	res, err := Fig12(Fig12Config{ZooModels: 6, PerDataset: 50, Clusters: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Input) != 15 || len(res.Best) != 15 || len(res.Worst) != 15 {
		t.Fatalf("PDF lengths %d/%d/%d, want 15", len(res.Input), len(res.Best), len(res.Worst))
	}
	if err := res.Input.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper shape: best follows the input, worst diverges.
	if res.BestJSD >= res.WorstJSD {
		t.Fatalf("best JSD %.4f not below worst %.4f", res.BestJSD, res.WorstJSD)
	}
	if !strings.Contains(res.Table(), "cluster") {
		t.Fatal("table malformed")
	}
}

func TestLearningCurvesBraggShape(t *testing.T) {
	for _, app := range []App{AppBragg, AppCookie} {
		t.Run(string(app), func(t *testing.T) {
			res, err := LearningCurves(CurvesConfig{
				App: app, ZooModels: 5, TestDatasets: 2, PerDataset: 40,
				Epochs: 15, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Sets) != 2 {
				t.Fatalf("got %d curve sets", len(res.Sets))
			}
			for _, set := range res.Sets {
				if len(set.Curves) != 4 {
					t.Fatalf("set has %d strategies", len(set.Curves))
				}
				for s, c := range set.Curves {
					if len(c) != 15 {
						t.Fatalf("strategy %s has %d epochs", s, len(c))
					}
				}
			}
			// Paper shape: FineTune-B starts far ahead of Retrain.
			if !res.BAlwaysFirst() {
				t.Fatal("FineTune-B does not start ahead of Retrain")
			}
		})
	}
}

func TestFig15CaseStudyOrdering(t *testing.T) {
	res, err := Fig15(Fig15Config{
		Historical: 200, NewSamples: 80, ScanPeaks: 500_000,
		FitSamples: 6, Epochs: 40, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Methods) != 4 {
		t.Fatalf("got %d methods", len(res.Methods))
	}
	byName := map[string]Fig15Method{}
	for _, m := range res.Methods {
		byName[m.Name] = m
	}
	// Paper shape: fairDMS fastest end-to-end; Voigt-80 slowest;
	// Voigt-1440 beats Voigt-80 by ~18×; fairDMS beats Retrain.
	if byName["fairDMS"].Total() >= byName["Retrain"].Total() {
		t.Fatalf("fairDMS (%v) not faster than Retrain (%v)",
			byName["fairDMS"].Total(), byName["Retrain"].Total())
	}
	if byName["Voigt-1440"].LabelTime >= byName["Voigt-80"].LabelTime {
		t.Fatal("Voigt-1440 labeling not faster than Voigt-80")
	}
	if byName["fairDMS"].LabelTime >= byName["Voigt-1440"].LabelTime {
		t.Fatalf("fairDS labeling (%v) not faster than Voigt-1440 (%v)",
			byName["fairDMS"].LabelTime, byName["Voigt-1440"].LabelTime)
	}
	if sp := res.Speedup("Voigt-80"); sp < 10 {
		t.Fatalf("Voigt-80 end-to-end speedup %.1f×, want large", sp)
	}
	if res.PerFitCost <= 0 {
		t.Fatal("per-fit calibration missing")
	}
}

func TestFig16TriggerRestoresCertainty(t *testing.T) {
	res, err := Fig16(Fig16Config{
		NumDatasets: 18, PerDataset: 30, DriftAt: 10, Warmup: 4,
		Clusters: 8, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Before) != 18 || len(res.After) != 18 {
		t.Fatalf("series lengths %d/%d", len(res.Before), len(res.After))
	}
	// Paper shape: the static series collapses after the drift...
	if res.MinBeforePostDrift() >= res.TriggerAt {
		t.Fatalf("static certainty never collapsed (min %.3f)", res.MinBeforePostDrift())
	}
	// ...a refresh fires...
	if len(res.Triggers) == 0 {
		t.Fatal("no refresh triggered")
	}
	// ...and the refreshed series ends healthy.
	lastAfter := res.After[len(res.After)-1]
	lastBefore := res.Before[len(res.Before)-1]
	if lastAfter <= lastBefore {
		t.Fatalf("refreshed certainty %.3f not above static %.3f at the end", lastAfter, lastBefore)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"a", "long-column"}}
	tb.add("1", "2")
	out := tb.String()
	if !strings.Contains(out, "long-column") || !strings.Contains(out, "---") {
		t.Fatalf("table output:\n%s", out)
	}
}

func TestVconcat(t *testing.T) {
	a := tensor.FromSlice([]float64{1, 2}, 1, 2)
	b := tensor.FromSlice([]float64{3, 4, 5, 6}, 2, 2)
	c := vconcat(a, b)
	if c.Dim(0) != 3 || c.At(2, 1) != 6 {
		t.Fatalf("vconcat = %v", c.Data())
	}
}

func TestStorageGenerateKinds(t *testing.T) {
	for _, k := range []StorageKind{StorageTomography, StorageCookieBox, StorageBragg} {
		s := generateStorageSamples(k, 3, 1)
		if len(s) != 3 {
			t.Fatalf("%s: generated %d", k, len(s))
		}
		if err := s[0].Validate(); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
}

func TestSimulateComputeDuration(t *testing.T) {
	x := tensor.New(10, 4)
	start := time.Now()
	simulateCompute(x, 200*time.Microsecond)
	if time.Since(start) < 2*time.Millisecond-500*time.Microsecond {
		t.Fatal("simulated compute returned too quickly")
	}
}
