package experiments

import (
	"fmt"

	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
	"fairdms/internal/trainer"
)

// CurvesConfig sizes the learning-curve comparison (Figs. 13–14): for each
// held-out dataset, validation loss per epoch when training from scratch
// (Retrain) vs fine-tuning the Best/Median/Worst zoo recommendation. Every
// strategy runs trainer.Fit, the daemon's fit step at its learning rates.
type CurvesConfig struct {
	App          App
	ZooModels    int
	TestDatasets int // paper: 4
	PerDataset   int
	Patch        int // bragg patch / cookie size
	Epochs       int
	Seed         int64
}

func (c *CurvesConfig) defaults() {
	if c.App == "" {
		c.App = AppBragg
	}
	if c.ZooModels <= 0 {
		c.ZooModels = 5
	}
	if c.TestDatasets <= 0 {
		c.TestDatasets = 2
	}
	// Zoo models must generalize within their regime (see ErrJSDConfig).
	if c.PerDataset <= 0 {
		c.PerDataset = 120
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
}

// Strategy names match the paper's legend.
const (
	StrategyRetrain   = "Retrain"
	StrategyFineTuneB = "FineTune-B"
	StrategyFineTuneM = "FineTune-M"
	StrategyFineTuneW = "FineTune-W"
)

// CurveSet holds the four learning curves for one test dataset.
type CurveSet struct {
	TestDataset int
	Curves      map[string][]float64 // strategy → per-epoch validation loss
}

// CurvesResult covers all test datasets.
type CurvesResult struct {
	App  App
	Sets []CurveSet
}

// Table prints the curves at a few epochs plus convergence summaries.
func (r *CurvesResult) Table() string {
	out := fmt.Sprintf("Figs. 13/14 — learning curves, %s\n", r.App)
	for _, set := range r.Sets {
		t := &table{header: []string{"epoch", StrategyRetrain, StrategyFineTuneB, StrategyFineTuneM, StrategyFineTuneW}}
		n := len(set.Curves[StrategyRetrain])
		for e := 0; e < n; e++ {
			if n > 12 && e%2 == 1 && e != n-1 {
				continue // thin long curves for readability
			}
			t.add(fmt.Sprintf("%d", e+1),
				f4(set.Curves[StrategyRetrain][e]),
				f4(set.Curves[StrategyFineTuneB][e]),
				f4(set.Curves[StrategyFineTuneM][e]),
				f4(set.Curves[StrategyFineTuneW][e]))
		}
		out += fmt.Sprintf("test dataset %d\n%s", set.TestDataset, t)
	}
	return out
}

// BAlwaysFirst reports whether FineTune-B's first-epoch loss beats
// Retrain's on every test dataset — the headline shape of Figs. 13–14
// (the best recommendation starts near convergence).
func (r *CurvesResult) BAlwaysFirst() bool {
	for _, set := range r.Sets {
		if set.Curves[StrategyFineTuneB][0] >= set.Curves[StrategyRetrain][0] {
			return false
		}
	}
	return true
}

// curveRunner abstracts the app-specific pieces of a curve-set run.
type curveRunner struct {
	zoo      *fairms.Zoo
	newModel func(state *nn.StateDict) (*nn.Model, error)
	tensors  func(i int) (x, y *tensor.Tensor) // training-ready tensors
	pdfOf    func(i int) (stats.PDF, error)
}

// LearningCurves builds the zoo and runs the four strategies per test
// dataset.
func LearningCurves(cfg CurvesConfig) (*CurvesResult, error) {
	cfg.defaults()
	total := cfg.ZooModels + cfg.TestDatasets
	var r curveRunner

	switch cfg.App {
	case AppBragg:
		env, err := newBraggEnv(braggEnvConfig{
			patch:       cfg.Patch,
			numDatasets: total,
			perDataset:  cfg.PerDataset,
			driftAt:     cfg.ZooModels / 2,
			embedOn:     3,
			zooOn:       cfg.ZooModels,
			seed:        cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		r = curveRunner{
			zoo: env.zoo,
			newModel: func(state *nn.StateDict) (*nn.Model, error) {
				m, err := env.braggModel(state)
				if err != nil {
					return nil, err
				}
				return m.Net, nil
			},
			tensors: func(i int) (*tensor.Tensor, *tensor.Tensor) {
				x, y := env.datasetTensors(i)
				helper, _ := env.braggModel(nil)
				return x, helper.Targets(y)
			},
			pdfOf: func(i int) (stats.PDF, error) {
				x, _ := env.datasetTensors(i)
				return env.ds.DatasetPDF(x)
			},
		}
	case AppCookie:
		// Span the historical trajectory (see ErrVsJSD's cookie note).
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
		r = curveRunner{
			zoo: env.zoo,
			newModel: func(state *nn.StateDict) (*nn.Model, error) {
				m, err := env.cookieModel(state)
				if err != nil {
					return nil, err
				}
				return m.Net, nil
			},
			tensors: func(i int) (*tensor.Tensor, *tensor.Tensor) {
				x, y := env.datasetTensors(i)
				helper, _ := env.cookieModel(nil)
				return scaleCookie(x), helper.Targets(y)
			},
			pdfOf: func(i int) (stats.PDF, error) {
				x, _ := env.datasetTensors(i)
				return env.ds.DatasetPDF(x)
			},
		}
	default:
		return nil, fmt.Errorf("experiments: unknown app %q", cfg.App)
	}

	res := &CurvesResult{App: cfg.App}
	for tdi := cfg.ZooModels; tdi < total; tdi++ {
		set, err := r.runCurveSet(tdi, cfg)
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, *set)
	}
	return res, nil
}

// runCurveSet executes the four strategies on one test dataset.
func (r *curveRunner) runCurveSet(tdi int, cfg CurvesConfig) (*CurveSet, error) {
	pdf, err := r.pdfOf(tdi)
	if err != nil {
		return nil, err
	}
	best, median, worst, err := r.zoo.BestMedianWorst(pdf)
	if err != nil {
		return nil, err
	}
	x, y := r.tensors(tdi)
	spec := trainer.Spec{Epochs: cfg.Epochs, BatchSize: 16, ValFraction: 0.25, Seed: cfg.Seed + int64(tdi)}

	states := map[string]*nn.StateDict{
		StrategyFineTuneB: best.Record.State, StrategyFineTuneM: median.Record.State, StrategyFineTuneW: worst.Record.State,
	}
	set := &CurveSet{TestDataset: tdi, Curves: make(map[string][]float64, 4)}
	for _, s := range []string{StrategyRetrain, StrategyFineTuneB, StrategyFineTuneM, StrategyFineTuneW} {
		model, err := r.newModel(states[s])
		if err != nil {
			return nil, err
		}
		set.Curves[s] = trainer.Fit(model, x, y, states[s] != nil, spec, nil, nil).ValLoss
	}
	return set, nil
}
