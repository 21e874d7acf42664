package experiments

import (
	"fmt"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/voigt"
)

// Fig09Config sizes the data-service validation (paper Fig. 9 / §III-E):
// a new experiment BR is labeled two ways — conventionally (pseudo-Voigt
// fits on every sample) and via fairDS (embedding-space nearest-neighbor
// reuse under threshold T, Voigt only for out-of-threshold samples) — and
// two BraggNNs trained on the two labeled sets are compared on a holdout.
type Fig09Config struct {
	Patch       int
	Historical  int     // historical labeled samples in the store
	NewSamples  int     // |BR|
	HoldoutFrac float64 // |BH| / |BR|
	Threshold   float64 // T, embedding-space reuse distance
	TrainEpochs int
	Seed        int64
}

func (c *Fig09Config) defaults() {
	// Fig. 9 defaults to the paper's 15×15 patch: the labeling-speed
	// comparison is only faithful when the Levenberg–Marquardt fit pays
	// its full per-peak cost.
	if c.Patch <= 0 {
		c.Patch = 15
	}
	if c.Historical <= 0 {
		c.Historical = 240
	}
	if c.NewSamples <= 0 {
		c.NewSamples = 120
	}
	if c.HoldoutFrac <= 0 {
		c.HoldoutFrac = 0.3
	}
	if c.TrainEpochs <= 0 {
		c.TrainEpochs = 30
	}
}

// Fig09Result compares the two labeling paths.
type Fig09Result struct {
	// Error percentiles on the holdout (pixels).
	ConvP50, ConvP75, ConvP95    float64
	FairP50, FairP75, FairP95    float64
	ConvLabelTime, FairLabelTime time.Duration
	Reused                       int // samples labeled by reuse
	Fitted                       int // samples that still needed a Voigt fit
}

// Table renders the Fig. 9 summary.
func (r *Fig09Result) Table() string {
	t := &table{header: []string{"labeling", "P50(px)", "P75(px)", "P95(px)", "label-time"}}
	t.add("conventional", f3(r.ConvP50), f3(r.ConvP75), f3(r.ConvP95), r.ConvLabelTime.Round(time.Millisecond).String())
	t.add("fairDS", f3(r.FairP50), f3(r.FairP75), f3(r.FairP95), r.FairLabelTime.Round(time.Millisecond).String())
	return fmt.Sprintf("Fig. 9 — conventional vs fairDS labeling (%d reused, %d fitted, %.0f× labeling speedup)\n%s",
		r.Reused, r.Fitted, r.Speedup(), t)
}

// Speedup returns conventional labeling time over fairDS labeling time.
func (r *Fig09Result) Speedup() float64 {
	if r.FairLabelTime <= 0 {
		return 0
	}
	return float64(r.ConvLabelTime) / float64(r.FairLabelTime)
}

// Fig09 runs the validation.
func Fig09(cfg Fig09Config) (*Fig09Result, error) {
	cfg.defaults()
	env, err := newBraggEnv(braggEnvConfig{
		patch:       cfg.Patch,
		numDatasets: 4,
		perDataset:  cfg.Historical / 4,
		driftAt:     1 << 30, // single regime family: BR must resemble history
		embedOn:     4,
		seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	// The new experiment BR, drawn from a nearby (slow-drift) regime.
	br := env.schedule.RegimeAt(5).Generate(env.rng, cfg.NewSamples)
	nHold := int(float64(len(br)) * cfg.HoldoutFrac)
	bh := br[:nHold]      // holdout
	bwork := br[nHold:]   // BR \ BH
	res := &Fig09Result{} // fill as we go

	// --- Conventional path: pseudo-Voigt fit for every sample. ---------
	convStart := time.Now()
	convSet := make([]*codec.Sample, len(bwork))
	for i, s := range bwork {
		fit, err := voigt.Fit(s.Floats(), cfg.Patch, cfg.Patch, voigt.FitConfig{})
		if err != nil {
			return nil, err
		}
		labeled := *s
		labeled.Label = []float64{fit.Params.Cx, fit.Params.Cy}
		convSet[i] = &labeled
	}
	res.ConvLabelTime = time.Since(convStart)

	// --- fairDS path: nearest-neighbor reuse under threshold T. --------
	// Calibrate T automatically when unset: the 75th-percentile NN
	// distance of a probe subset, so most samples reuse labels.
	threshold := cfg.Threshold
	if threshold <= 0 {
		probeN := len(bwork)
		if probeN > 20 {
			probeN = 20
		}
		probes, err := env.ds.NearestMatches(bwork[:probeN], false)
		if err != nil {
			return nil, err
		}
		var dists []float64
		for _, m := range probes {
			dists = append(dists, m.Dist)
		}
		threshold = stats.Percentile(dists, 75)
	}
	fairStart := time.Now()
	matches, err := env.ds.NearestMatches(bwork, true)
	if err != nil {
		return nil, err
	}
	var reuseIDs []string
	var fitIdx []int
	for i, m := range matches {
		if m.DocID != "" && m.Dist < threshold {
			reuseIDs = append(reuseIDs, m.DocID)
		} else {
			fitIdx = append(fitIdx, i)
		}
	}
	// Reused: the historical samples with their labels, {p, l(p)}.
	fairSet, err := env.ds.GetSamples(reuseIDs)
	if err != nil {
		return nil, err
	}
	res.Reused = len(fairSet)
	// Out-of-threshold: pseudo-Voigt labels computed conventionally.
	for _, i := range fitIdx {
		s := bwork[i]
		fit, err := voigt.Fit(s.Floats(), cfg.Patch, cfg.Patch, voigt.FitConfig{})
		if err != nil {
			return nil, err
		}
		labeled := *s
		labeled.Label = []float64{fit.Params.Cx, fit.Params.Cy}
		fairSet = append(fairSet, &labeled)
		res.Fitted++
	}
	res.FairLabelTime = time.Since(fairStart)

	// --- Train the two models and evaluate on BH. -----------------------
	trainEval := func(set []*codec.Sample, seed int64) ([]float64, error) {
		m := models.NewBraggNN(env.rng, cfg.Patch)
		x, y := collate(set)
		opt := nn.NewAdam(m.Net.Params(), 2e-3)
		// A labeler-quality probe, not the Fig. 5 action: a plain nn.Fit.
		nn.Fit(m.Net, opt, x, m.Targets(y), x, m.Targets(y),
			nn.TrainConfig{Epochs: cfg.TrainEpochs, BatchSize: 16, Seed: seed})
		hx, hy := collate(bh)
		return m.ErrorsPx(hx, hy), nil
	}
	convErrs, err := trainEval(convSet, cfg.Seed+20)
	if err != nil {
		return nil, err
	}
	fairErrs, err := trainEval(fairSet, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	res.ConvP50 = stats.Percentile(convErrs, 50)
	res.ConvP75 = stats.Percentile(convErrs, 75)
	res.ConvP95 = stats.Percentile(convErrs, 95)
	res.FairP50 = stats.Percentile(fairErrs, 50)
	res.FairP75 = stats.Percentile(fairErrs, 75)
	res.FairP95 = stats.Percentile(fairErrs, 95)
	return res, nil
}
