package experiments

import (
	"fmt"

	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/uq"
)

// Fig02Config sizes the model-degradation experiment (paper Fig. 2):
// a BraggNN trained on the early phase of a drifting HEDM sequence is
// evaluated on every subsequent dataset, tracking prediction error and
// MC-dropout uncertainty.
type Fig02Config struct {
	Patch       int
	NumDatasets int
	PerDataset  int
	DriftAt     int
	TrainOn     int // datasets used for training (the "up to scan 402" phase)
	TrainEpochs int
	MCSamples   int
	Seed        int64
}

func (c *Fig02Config) defaults() {
	if c.Patch <= 0 {
		c.Patch = 9
	}
	if c.NumDatasets <= 0 {
		c.NumDatasets = 16
	}
	if c.PerDataset <= 0 {
		c.PerDataset = 50
	}
	if c.DriftAt <= 0 {
		c.DriftAt = c.NumDatasets * 6 / 10
	}
	if c.TrainOn <= 0 {
		c.TrainOn = 3
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 30
	}
	if c.MCSamples <= 0 {
		c.MCSamples = 15
	}
}

// Fig02Point is one dataset's evaluation.
type Fig02Point struct {
	Dataset     int
	ErrorPx     float64
	Uncertainty float64
}

// Fig02Result is the degradation series.
type Fig02Result struct {
	Points  []Fig02Point
	DriftAt int
}

// Table renders the Fig. 2 series.
func (r *Fig02Result) Table() string {
	t := &table{header: []string{"dataset", "error(px)", "uncertainty", "phase"}}
	for _, p := range r.Points {
		phase := "pre-drift"
		if p.Dataset >= r.DriftAt {
			phase = "POST-DRIFT"
		}
		t.add(fmt.Sprintf("%d", p.Dataset), f3(p.ErrorPx), f4(p.Uncertainty), phase)
	}
	return "Fig. 2 — model degradation over a drifting scan sequence\n" + t.String()
}

// ErrorRise returns mean post-drift error over mean pre-drift error — the
// degradation factor the figure visualizes.
func (r *Fig02Result) ErrorRise() float64 {
	var pre, post []float64
	for _, p := range r.Points {
		if p.Dataset < r.DriftAt {
			pre = append(pre, p.ErrorPx)
		} else {
			post = append(post, p.ErrorPx)
		}
	}
	return stats.Mean(post) / stats.Mean(pre)
}

// UncertaintyRise returns the analogous factor for MC-dropout uncertainty.
func (r *Fig02Result) UncertaintyRise() float64 {
	var pre, post []float64
	for _, p := range r.Points {
		if p.Dataset < r.DriftAt {
			pre = append(pre, p.Uncertainty)
		} else {
			post = append(post, p.Uncertainty)
		}
	}
	return stats.Mean(post) / stats.Mean(pre)
}

// Fig02 trains a BraggNN on the pre-drift phase and evaluates error +
// uncertainty across the full sequence.
func Fig02(cfg Fig02Config) (*Fig02Result, error) {
	cfg.defaults()
	env, err := newBraggEnv(braggEnvConfig{
		patch:       cfg.Patch,
		numDatasets: cfg.NumDatasets,
		perDataset:  cfg.PerDataset,
		driftAt:     cfg.DriftAt,
		embedOn:     cfg.TrainOn,
		seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// Train on the early phase.
	m := models.NewBraggNN(env.rng, cfg.Patch)
	var xs, ys = env.datasetTensors(0)
	for i := 1; i < cfg.TrainOn; i++ {
		x2, y2 := env.datasetTensors(i)
		xs = vconcat(xs, x2)
		ys = vconcat(ys, y2)
	}
	opt := nn.NewAdam(m.Net.Params(), 2e-3)
	// The model Fig. 2 watches degrade, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(m.Net, opt, xs, m.Targets(ys), xs, m.Targets(ys),
		nn.TrainConfig{Epochs: cfg.TrainEpochs, BatchSize: 32, Seed: cfg.Seed + 10})

	res := &Fig02Result{DriftAt: cfg.DriftAt}
	for i := 0; i < cfg.NumDatasets; i++ {
		x, y := env.datasetTensors(i)
		errPx := m.MeanErrorPx(x, y)
		unc, err := uq.MeanUncertainty(m.Net, x, cfg.MCSamples)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig02Point{Dataset: i, ErrorPx: errPx, Uncertainty: unc})
	}
	return res, nil
}
