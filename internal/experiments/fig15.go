package experiments

import (
	"fmt"
	"time"

	"fairdms/internal/nn"
	"fairdms/internal/simcluster"
	"fairdms/internal/trainer"
	"fairdms/internal/voigt"
)

// Fig15Config sizes the end-to-end case study (paper Fig. 15 / §III-H):
// dataset 22 of an HEDM series triggers retraining; four methods are
// compared on labeling time, training time, and end-to-end time:
//
//	fairDMS    — fairDS label reuse + fairMS fine-tuning
//	Retrain    — fairDS label reuse + training from scratch
//	Voigt-80   — pseudo-Voigt labeling on an 80-core workstation + scratch
//	Voigt-1440 — pseudo-Voigt labeling on a 1440-core cluster + scratch
//
// Voigt label costs are measured on real Levenberg–Marquardt fits and
// extrapolated to the paper's core counts by simcluster (perfect scaling,
// i.e. the baseline's best case).
type Fig15Config struct {
	Patch       int
	Historical  int     // labeled samples in the store
	NewSamples  int     // dataset-22 size used for training
	ScanPeaks   int     // peaks a full scan must label conventionally (paper: 1400–3600 frames × many peaks)
	FitSamples  int     // real Voigt fits used to calibrate per-peak cost
	Epochs      int     // training epoch cap
	TargetScale float64 // convergence target = TargetScale × foundation loss
	Seed        int64
}

func (c *Fig15Config) defaults() {
	if c.Patch <= 0 {
		c.Patch = 9
	}
	if c.Historical <= 0 {
		c.Historical = 300
	}
	if c.NewSamples <= 0 {
		c.NewSamples = 100
	}
	if c.ScanPeaks <= 0 {
		c.ScanPeaks = 100_000
	}
	if c.FitSamples <= 0 {
		c.FitSamples = 10
	}
	if c.Epochs <= 0 {
		c.Epochs = 60
	}
	if c.TargetScale <= 0 {
		c.TargetScale = 1.5
	}
}

// Fig15Method is one bar group of the figure.
type Fig15Method struct {
	Name      string
	LabelTime time.Duration
	TrainTime time.Duration
}

// Total is the end-to-end model updating time.
func (m Fig15Method) Total() time.Duration { return m.LabelTime + m.TrainTime }

// Fig15Result holds the four methods.
type Fig15Result struct {
	Methods    []Fig15Method // fairDMS, Retrain, Voigt-80, Voigt-1440
	PerFitCost time.Duration // calibrated single-peak Voigt cost
}

// Table renders the Fig. 15 bars.
func (r *Fig15Result) Table() string {
	t := &table{header: []string{"method", "label", "train", "end-to-end"}}
	for _, m := range r.Methods {
		t.add(m.Name,
			m.LabelTime.Round(time.Microsecond).String(),
			m.TrainTime.Round(time.Millisecond).String(),
			m.Total().Round(time.Millisecond).String())
	}
	return fmt.Sprintf("Fig. 15 — BraggNN retraining case study (per-fit cost %v)\n%s\nspeedups vs fairDMS: %s",
		r.PerFitCost, t, r.SpeedupSummary())
}

// Speedup returns method i's end-to-end time over fairDMS's.
func (r *Fig15Result) Speedup(name string) float64 {
	var base, other time.Duration
	for _, m := range r.Methods {
		if m.Name == "fairDMS" {
			base = m.Total()
		}
		if m.Name == name {
			other = m.Total()
		}
	}
	if base <= 0 {
		return 0
	}
	return float64(other) / float64(base)
}

// SpeedupSummary formats all end-to-end speedups relative to fairDMS.
func (r *Fig15Result) SpeedupSummary() string {
	out := ""
	for _, m := range r.Methods {
		if m.Name == "fairDMS" {
			continue
		}
		out += fmt.Sprintf("%s %.0f×  ", m.Name, r.Speedup(m.Name))
	}
	return out
}

// Fig15 runs the case study.
func Fig15(cfg Fig15Config) (*Fig15Result, error) {
	cfg.defaults()
	env, err := newBraggEnv(braggEnvConfig{
		patch:       cfg.Patch,
		numDatasets: 5,
		perDataset:  cfg.Historical / 5,
		driftAt:     1 << 30, // dataset 22 resembles history (that is the premise)
		embedOn:     3,
		zooOn:       4,
		zooEpochs:   40,
		seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// "Dataset 22": new data needing a model update.
	d22 := env.schedule.RegimeAt(6).Generate(env.rng, cfg.NewSamples)
	x22, _ := collate(d22)

	// --- Labeling costs -------------------------------------------------
	// fairDS: PDF-matched retrieval, measured.
	labelStart := time.Now()
	retrieved, err := env.ds.LookupLabeled(x22)
	if err != nil {
		return nil, err
	}
	fairLabel := time.Since(labelStart)

	// Voigt: calibrate per-fit cost on real fits, extrapolate to a scan.
	fitIdx := 0
	perFit := simcluster.MeasurePerTask(func() {
		s := d22[fitIdx%len(d22)]
		fitIdx++
		if _, err := voigt.Fit(s.Floats(), cfg.Patch, cfg.Patch, voigt.FitConfig{}); err != nil {
			panic("experiments: voigt calibration fit failed: " + err.Error())
		}
	}, cfg.FitSamples)
	v80 := simcluster.Workstation80.EstimateWallTime(cfg.ScanPeaks, perFit)
	v1440 := simcluster.Cluster1440.EstimateWallTime(cfg.ScanPeaks, perFit)

	// --- Training costs -------------------------------------------------
	// Fine-tune path: best zoo recommendation.
	pdf, err := env.ds.DatasetPDF(x22)
	if err != nil {
		return nil, err
	}
	best, err := env.zoo.Recommend(pdf)
	if err != nil {
		return nil, err
	}
	rx, ry := collate(retrieved)
	helper, _ := env.braggModel(nil)
	targets := helper.Targets(ry)
	// Both paths run trainer.Fit, the daemon's fit step at its learning
	// rates, to a target set on the rows that step holds out.
	spec := trainer.Spec{Epochs: cfg.Epochs, BatchSize: 32, ValFraction: 0.25, Seed: cfg.Seed + 30}
	_, _, valX, valY := trainer.Split(rx, targets, spec.ValFraction, spec.Seed)

	foundation, err := env.braggModel(best.Record.State)
	if err != nil {
		return nil, err
	}
	spec.TargetLoss = nn.Evaluate(foundation.Net, valX, valY, nn.MSE) * cfg.TargetScale

	ftStart := time.Now()
	ftModel, err := env.braggModel(best.Record.State)
	if err != nil {
		return nil, err
	}
	trainer.Fit(ftModel.Net, rx, targets, true, spec, nil, nil)
	ftTrain := time.Since(ftStart)

	// Scratch path to the same target (shared by Retrain and both Voigts).
	scStart := time.Now()
	scModel, err := env.braggModel(nil)
	if err != nil {
		return nil, err
	}
	trainer.Fit(scModel.Net, rx, targets, false, spec, nil, nil)
	scTrain := time.Since(scStart)

	return &Fig15Result{
		PerFitCost: perFit,
		Methods: []Fig15Method{
			{Name: "fairDMS", LabelTime: fairLabel, TrainTime: ftTrain},
			{Name: "Retrain", LabelTime: fairLabel, TrainTime: scTrain},
			{Name: "Voigt-80", LabelTime: v80, TrainTime: scTrain},
			{Name: "Voigt-1440", LabelTime: v1440, TrainTime: scTrain},
		},
	}, nil
}
