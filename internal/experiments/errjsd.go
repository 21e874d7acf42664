package experiments

import (
	"fmt"

	"fairdms/internal/stats"
)

// App selects the benchmark application for cross-app experiments.
type App string

// The two paper applications.
const (
	AppBragg  App = "bragg"  // BraggNN (Figs. 10, 14)
	AppCookie App = "cookie" // CookieNetAE (Figs. 11, 13)
)

// ErrJSDConfig sizes the model-service validation (Figs. 10–11): for every
// zoo model, its prediction error on a test dataset is plotted against the
// JSD between the model's training data and the test data.
type ErrJSDConfig struct {
	App          App
	ZooModels    int // models in the zoo (each trained on one drift stage)
	TestDatasets int // how many held-out datasets to evaluate (paper: 4)
	PerDataset   int
	Patch        int // bragg patch / cookie size
	Seed         int64
}

func (c *ErrJSDConfig) defaults() {
	if c.App == "" {
		c.App = AppBragg
	}
	if c.ZooModels <= 0 {
		c.ZooModels = 6
	}
	if c.TestDatasets <= 0 {
		c.TestDatasets = 4
	}
	// Zoo models must generalize within their regime for the error-vs-JSD
	// relation to be visible above training noise; ~100+ samples per
	// dataset achieves that at the quick patch size.
	if c.PerDataset <= 0 {
		c.PerDataset = 120
	}
}

// ErrJSDPoint is one (model, test-dataset) pair.
type ErrJSDPoint struct {
	ModelID string
	JSD     float64
	Error   float64 // px error for Bragg, MSE for Cookie
}

// ErrJSDSeries is the scatter for one test dataset.
type ErrJSDSeries struct {
	TestDataset int
	Points      []ErrJSDPoint
	Correlation float64 // Pearson r between JSD and error
}

// ErrJSDResult covers all test datasets.
type ErrJSDResult struct {
	App    App
	Series []ErrJSDSeries
}

// Table renders the scatter data per test dataset.
func (r *ErrJSDResult) Table() string {
	out := fmt.Sprintf("Figs. 10/11 — prediction error vs dataset JSD (%s)\n", r.App)
	for _, s := range r.Series {
		t := &table{header: []string{"model", "jsd", "error"}}
		for _, p := range s.Points {
			t.add(p.ModelID, f4(p.JSD), f4(p.Error))
		}
		out += fmt.Sprintf("test dataset %d (pearson r = %.3f)\n%s", s.TestDataset, s.Correlation, t)
	}
	return out
}

// MeanCorrelation averages the per-dataset Pearson correlations — the
// figure's qualitative claim is that this is clearly positive.
func (r *ErrJSDResult) MeanCorrelation() float64 {
	var rs []float64
	for _, s := range r.Series {
		rs = append(rs, s.Correlation)
	}
	return stats.Mean(rs)
}

// ErrVsJSD builds the drifting sequence, trains one model per early
// dataset, then scores every model against each late (held-out) dataset.
func ErrVsJSD(cfg ErrJSDConfig) (*ErrJSDResult, error) {
	cfg.defaults()
	total := cfg.ZooModels + cfg.TestDatasets
	res := &ErrJSDResult{App: cfg.App}

	switch cfg.App {
	case AppBragg:
		env, err := newBraggEnv(braggEnvConfig{
			patch:       cfg.Patch,
			numDatasets: total,
			perDataset:  cfg.PerDataset,
			driftAt:     cfg.ZooModels / 2, // bimodal: jump mid-zoo (paper Fig. 10)
			embedOn:     3,
			zooOn:       cfg.ZooModels,
			seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for tdi := cfg.ZooModels; tdi < total; tdi++ {
			x, y := env.datasetTensors(tdi)
			pdf, err := env.ds.DatasetPDF(x)
			if err != nil {
				return nil, err
			}
			series := ErrJSDSeries{TestDataset: tdi}
			var jsds, errs []float64
			for _, id := range env.zoo.IDs() {
				rec, err := env.zoo.Get(id)
				if err != nil {
					return nil, err
				}
				m, err := env.braggModel(rec.State)
				if err != nil {
					return nil, err
				}
				p := ErrJSDPoint{
					ModelID: id,
					JSD:     stats.JSDivergence(pdf, rec.TrainPDF),
					Error:   m.MeanErrorPx(x, y),
				}
				series.Points = append(series.Points, p)
				jsds = append(jsds, p.JSD)
				errs = append(errs, p.Error)
			}
			series.Correlation = stats.PearsonCorrelation(jsds, errs)
			res.Series = append(res.Series, series)
		}
	case AppCookie:
		// The CookieBox drift is gradual, so the embedding + clustering
		// must span the full historical trajectory or every dataset's PDF
		// saturates onto the early clusters and JSD loses resolution.
		env, err := newCookieEnv(cookieEnvConfig{
			size:        cfg.Patch,
			numDatasets: total,
			perDataset:  cfg.PerDataset,
			embedOn:     cfg.ZooModels,
			zooOn:       cfg.ZooModels,
			seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for tdi := cfg.ZooModels; tdi < total; tdi++ {
			rawX, y := env.datasetTensors(tdi)
			pdf, err := env.ds.DatasetPDF(rawX)
			if err != nil {
				return nil, err
			}
			series := ErrJSDSeries{TestDataset: tdi}
			var jsds, errs []float64
			for _, id := range env.zoo.IDs() {
				rec, err := env.zoo.Get(id)
				if err != nil {
					return nil, err
				}
				m, err := env.cookieModel(rec.State)
				if err != nil {
					return nil, err
				}
				p := ErrJSDPoint{
					ModelID: id,
					JSD:     stats.JSDivergence(pdf, rec.TrainPDF),
					Error:   m.Loss(scaleCookie(rawX), y),
				}
				series.Points = append(series.Points, p)
				jsds = append(jsds, p.JSD)
				errs = append(errs, p.Error)
			}
			series.Correlation = stats.PearsonCorrelation(jsds, errs)
			res.Series = append(res.Series, series)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown app %q", cfg.App)
	}
	return res, nil
}
