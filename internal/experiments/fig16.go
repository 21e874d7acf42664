package experiments

import (
	"fmt"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
)

// Fig16Config sizes the uncertainty-trigger experiment (paper Fig. 16 /
// §III-I): a sequence of drifting datasets is monitored with fuzzy-k-means
// certainty. The "Before Trigger" series keeps the embedding/clustering
// models trained on the first warmup datasets; the "After Trigger" series
// refreshes them (system plane) whenever certainty drops below the
// trigger level.
type Fig16Config struct {
	Patch         int
	NumDatasets   int // paper: 36
	PerDataset    int
	DriftAt       int     // paper observes the collapse at dataset 23
	Warmup        int     // datasets used for the initial models (paper: 5)
	Clusters      int     // paper: 15
	MembershipCut float64 // paper: 0.5
	Trigger       float64 // paper: 0.8
	RefreshWindow int     // recent datasets used when refreshing
	Fuzzifier     float64 // fuzzy c-means exponent; 1.4 calibrates our
	// embedding space to the paper's ~97% familiar-data certainty
	EmbedEpochs int // BYOL training epochs per (re)fit
	Seed        int64
}

func (c *Fig16Config) defaults() {
	if c.Patch <= 0 {
		c.Patch = 9
	}
	if c.NumDatasets <= 0 {
		c.NumDatasets = 36
	}
	if c.PerDataset <= 0 {
		c.PerDataset = 40
	}
	if c.DriftAt <= 0 {
		c.DriftAt = 23
	}
	if c.Warmup <= 0 {
		c.Warmup = 5
	}
	if c.Clusters <= 0 {
		c.Clusters = 15
	}
	if c.MembershipCut <= 0 {
		c.MembershipCut = 0.5
	}
	if c.Trigger <= 0 {
		c.Trigger = 0.8
	}
	if c.RefreshWindow <= 0 {
		c.RefreshWindow = 3
	}
	if c.Fuzzifier <= 1 {
		c.Fuzzifier = 1.4
	}
	if c.EmbedEpochs <= 0 {
		c.EmbedEpochs = 30
	}
}

// Fig16Result holds the two certainty series.
type Fig16Result struct {
	Before    []float64 // static models
	After     []float64 // with uncertainty-triggered refresh
	Triggers  []int     // dataset indices where a refresh fired
	DriftAt   int
	TriggerAt float64
}

// Table renders the Fig. 16 series.
func (r *Fig16Result) Table() string {
	t := &table{header: []string{"dataset", "before(%)", "after(%)", "event"}}
	trig := map[int]bool{}
	for _, i := range r.Triggers {
		trig[i] = true
	}
	for i := range r.Before {
		ev := ""
		if trig[i] {
			ev = "REFRESH"
		}
		if i == r.DriftAt {
			ev += " drift"
		}
		t.add(fmt.Sprintf("%d", i), f3(100*r.Before[i]), f3(100*r.After[i]), ev)
	}
	return fmt.Sprintf("Fig. 16 — clustering certainty without vs with the %.0f%% trigger\n%s", 100*r.TriggerAt, t)
}

// MinBeforePostDrift returns the lowest post-drift certainty of the static
// series — the collapse the trigger mechanism exists to catch.
func (r *Fig16Result) MinBeforePostDrift() float64 {
	lo := 1.0
	for i := r.DriftAt; i < len(r.Before); i++ {
		if r.Before[i] < lo {
			lo = r.Before[i]
		}
	}
	return lo
}

// fig16Pipeline bundles an embedder + fairDS refreshed on demand.
type fig16Pipeline struct {
	patch     int
	k         int
	fuzzifier float64
	epochs    int
	seed      int64
	ds        *fairds.Service
}

// fitOn (re)builds the embedder and clustering on the given datasets.
func (p *fig16Pipeline) fitOn(datasets [][]*codec.Sample) error {
	var all []*codec.Sample
	for _, d := range datasets {
		all = append(all, d...)
	}
	x, _ := collate(all)
	rng := randFor(p.seed)
	aug := embed.ImageAugmenter{H: p.patch, W: p.patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, x.Dim(1), 64, 8, aug.View, 0.95)
	byol.Train(x, embed.TrainConfig{Epochs: p.epochs, BatchSize: 32, LR: 2e-3, Seed: p.seed + 1})

	store := docstore.NewStore().Collection("fig16")
	ds, err := fairds.New(byol, store, fairds.Config{Seed: p.seed + 2, Fuzzifier: p.fuzzifier})
	if err != nil {
		return err
	}
	if err := ds.FitClustersK(x, p.k); err != nil {
		return err
	}
	p.ds = ds
	return nil
}

// Fig16 runs both monitoring series over the drifting sequence.
func Fig16(cfg Fig16Config) (*Fig16Result, error) {
	cfg.defaults()
	schedule := datagen.DefaultBraggDrift(cfg.DriftAt)
	schedule.Base.Patch = cfg.Patch
	seq := schedule.BraggExperiment(cfg.Seed, cfg.NumDatasets, cfg.PerDataset)

	res := &Fig16Result{DriftAt: cfg.DriftAt, TriggerAt: cfg.Trigger}

	// Before: models fixed after warmup.
	static := &fig16Pipeline{
		patch: cfg.Patch, k: cfg.Clusters,
		fuzzifier: cfg.Fuzzifier, epochs: cfg.EmbedEpochs, seed: cfg.Seed + 10,
	}
	if err := static.fitOn(seq[:cfg.Warmup]); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumDatasets; i++ {
		x, _ := collate(seq[i])
		c, err := static.ds.Certainty(x, cfg.MembershipCut)
		if err != nil {
			return nil, err
		}
		res.Before = append(res.Before, c)
	}

	// After: refresh on trigger using the recent window.
	dynamic := &fig16Pipeline{
		patch: cfg.Patch, k: cfg.Clusters,
		fuzzifier: cfg.Fuzzifier, epochs: cfg.EmbedEpochs, seed: cfg.Seed + 20,
	}
	if err := dynamic.fitOn(seq[:cfg.Warmup]); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.NumDatasets; i++ {
		x, _ := collate(seq[i])
		c, err := dynamic.ds.Certainty(x, cfg.MembershipCut)
		if err != nil {
			return nil, err
		}
		if c < cfg.Trigger {
			// System plane: retrain embedding + clustering on the recent
			// window including this dataset, then remeasure.
			lo := i - cfg.RefreshWindow + 1
			if lo < 0 {
				lo = 0
			}
			dynamic.seed += 100 // fresh weights per refresh
			if err := dynamic.fitOn(seq[lo : i+1]); err != nil {
				return nil, err
			}
			res.Triggers = append(res.Triggers, i)
			if c, err = dynamic.ds.Certainty(x, cfg.MembershipCut); err != nil {
				return nil, err
			}
		}
		res.After = append(res.After, c)
	}
	return res, nil
}
