// Package fairdms's root benchmark suite regenerates every figure of the
// paper's evaluation section (§III) under the Go benchmark harness: one
// Benchmark per figure, each reporting the figure's headline metric via
// b.ReportMetric so `go test -bench=.` doubles as the reproduction run.
// `go run ./cmd/experiments` prints the same figures' full series as text
// tables; no paper-vs-measured comparison is recorded in the repository.
package fairdms

import (
	"testing"

	"fairdms/internal/experiments"
)

func BenchmarkFig02_Degradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig02(experiments.Fig02Config{
			NumDatasets: 10, PerDataset: 40, DriftAt: 6, TrainOn: 3,
			TrainEpochs: 25, MCSamples: 10, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ErrorRise(), "error-rise-x")
		b.ReportMetric(res.UncertaintyRise(), "uncertainty-rise-x")
	}
}

func benchStorage(b *testing.B, kind experiments.StorageKind) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.StorageSweep(experiments.StorageConfig{
			Kind: kind, Samples: 96,
			BatchSizes: []int{16, 64}, Workers: []int{1, 8},
			FixedWorkers: 4, FixedBatch: 16,
			Dir: b.TempDir(), Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Headline: how much 8 workers improve remote-store I/O over 1.
		var pickle experiments.StorageSeries
		for _, s := range res.Series {
			if s.Backend == "pickle" {
				pickle = s
			}
		}
		if len(pickle.IOPerIter) == 2 && pickle.IOPerIter[1] > 0 {
			b.ReportMetric(float64(pickle.IOPerIter[0])/float64(pickle.IOPerIter[1]), "worker-speedup-x")
		}
	}
}

func BenchmarkFig06_TomoStorage(b *testing.B)   { benchStorage(b, experiments.StorageTomography) }
func BenchmarkFig07_CookieStorage(b *testing.B) { benchStorage(b, experiments.StorageCookieBox) }
func BenchmarkFig08_BraggStorage(b *testing.B)  { benchStorage(b, experiments.StorageBragg) }

func BenchmarkFig09_DataServiceValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig09(experiments.Fig09Config{
			Historical: 160, NewSamples: 60, TrainEpochs: 20, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup(), "label-speedup-x")
		b.ReportMetric(res.FairP50, "fairds-p50-px")
		b.ReportMetric(res.ConvP50, "conventional-p50-px")
	}
}

func BenchmarkFig10_BraggErrVsJSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ErrVsJSD(experiments.ErrJSDConfig{
			App: experiments.AppBragg, ZooModels: 6, TestDatasets: 2, Seed: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanCorrelation(), "jsd-error-corr")
		b.ReportMetric(res.BestIsAccurate(), "best-in-top2-frac")
	}
}

func BenchmarkFig11_CookieErrVsJSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ErrVsJSD(experiments.ErrJSDConfig{
			App: experiments.AppCookie, ZooModels: 5, TestDatasets: 2, PerDataset: 30, Seed: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanCorrelation(), "jsd-error-corr")
	}
}

func BenchmarkFig12_PDFComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(experiments.Fig12Config{
			ZooModels: 6, PerDataset: 50, Clusters: 15, Seed: 6,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestJSD, "best-jsd")
		b.ReportMetric(res.WorstJSD, "worst-jsd")
	}
}

func benchCurves(b *testing.B, app experiments.App, perDataset int) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LearningCurves(experiments.CurvesConfig{
			App: app, ZooModels: 5, TestDatasets: 2, PerDataset: perDataset,
			Epochs: 15, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Headline: ratio of Retrain's to FineTune-B's first-epoch loss —
		// how far ahead the best recommendation starts.
		set := res.Sets[0]
		head := set.Curves[experiments.StrategyRetrain][0] /
			set.Curves[experiments.StrategyFineTuneB][0]
		b.ReportMetric(head, "finetuneB-headstart-x")
	}
}

func BenchmarkFig13_CookieLearningCurves(b *testing.B) {
	benchCurves(b, experiments.AppCookie, 30)
}

func BenchmarkFig14_BraggLearningCurves(b *testing.B) {
	benchCurves(b, experiments.AppBragg, 40)
}

func BenchmarkFig15_CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(experiments.Fig15Config{
			Historical: 200, NewSamples: 80, ScanPeaks: 500_000,
			FitSamples: 6, Epochs: 40, Seed: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup("Voigt-80"), "vs-voigt80-x")
		b.ReportMetric(res.Speedup("Voigt-1440"), "vs-voigt1440-x")
		b.ReportMetric(res.Speedup("Retrain"), "vs-retrain-x")
	}
}

func BenchmarkFig16_UncertaintyTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(experiments.Fig16Config{
			NumDatasets: 18, PerDataset: 30, DriftAt: 10, Warmup: 4,
			Clusters: 8, Seed: 9,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MinBeforePostDrift(), "static-min-certainty")
		b.ReportMetric(res.After[len(res.After)-1], "refreshed-final-certainty")
	}
}

// BenchmarkAblation_EmbeddingMethod reproduces the §IV failure analysis:
// autoencoder vs BYOL rotation-retrieval quality.
func BenchmarkAblation_EmbeddingMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.EmbedAblation(experiments.EmbedAblationConfig{
			Samples: 60, Epochs: 20, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AERetrieval, "ae-rot-retrieval")
		b.ReportMetric(res.BYOLRetrieval, "byol-rot-retrieval")
	}
}

// BenchmarkAblation_PDFMatchedRetrieval quantifies how much fairDS's
// PDF-matched sampling improves distribution fidelity over uniform
// sampling of the store.
func BenchmarkAblation_PDFMatchedRetrieval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RetrievalAblation(experiments.RetrievalAblationConfig{Seed: 12})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MatchedJSD, "matched-jsd")
		b.ReportMetric(res.UniformJSD, "uniform-jsd")
	}
}
