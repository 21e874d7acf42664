package experiments

import (
	"fmt"
	"math/rand"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// braggEnv is the shared scaffold for the Bragg-based experiments: a
// drifting scan sequence, a BYOL embedder trained on the early phase (the
// paper's embedding choice for Bragg data, §IV), a fitted fairDS over a
// local docstore, and a zoo with one BraggNN per historical dataset.
type braggEnv struct {
	patch    int
	schedule datagen.BraggDriftSchedule
	seq      [][]*codec.Sample
	ds       *fairds.Service
	zoo      *fairms.Zoo
	rng      *rand.Rand
}

// braggEnvConfig sizes the scaffold.
type braggEnvConfig struct {
	patch       int // Bragg patch size (9 = quick, 15 = paper)
	numDatasets int
	perDataset  int
	driftAt     int // dataset index of the deformation event
	embedOn     int // first N datasets train the embedder + clusters
	k           int // cluster count (0 = elbow selection)
	zooOn       int // first N datasets contribute zoo models (0 = none)
	zooEpochs   int
	seed        int64
}

func (c *braggEnvConfig) defaults() {
	if c.patch <= 0 {
		c.patch = 9
	}
	if c.numDatasets <= 0 {
		c.numDatasets = 12
	}
	if c.perDataset <= 0 {
		c.perDataset = 60
	}
	if c.driftAt <= 0 {
		c.driftAt = (c.numDatasets * 6) / 10
	}
	if c.embedOn <= 0 {
		c.embedOn = 3
	}
	if c.zooEpochs <= 0 {
		c.zooEpochs = 40
	}
}

// newBraggEnv builds the scaffold. All historical datasets are ingested
// into the store with their ground-truth labels.
func newBraggEnv(cfg braggEnvConfig) (*braggEnv, error) {
	cfg.defaults()
	schedule := datagen.DefaultBraggDrift(cfg.driftAt)
	schedule.Base.Patch = cfg.patch
	// The deformation jump scales with the patch so post-drift peaks stay
	// resolvable inside small quick-run patches (the paper's 15×15 patch
	// pairs with its absolute jump; 0.1×patch reproduces that ratio).
	schedule.JumpWidth = 0.1 * float64(cfg.patch)
	seq := schedule.BraggExperiment(cfg.seed, cfg.numDatasets, cfg.perDataset)
	rng := rand.New(rand.NewSource(cfg.seed + 1))

	// Embedder: BYOL with physics-inspired augmentations, trained on the
	// early phase (system plane).
	var early []*codec.Sample
	for i := 0; i < cfg.embedOn && i < len(seq); i++ {
		early = append(early, seq[i]...)
	}
	ex, _ := collate(early)
	aug := embed.ImageAugmenter{H: cfg.patch, W: cfg.patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, ex.Dim(1), 64, 8, aug.View, 0.95)
	byol.Train(ex, embed.TrainConfig{Epochs: 15, BatchSize: 32, LR: 2e-3, Seed: cfg.seed + 2})

	store := docstore.NewStore().Collection("bragg")
	ds, err := fairds.New(byol, store, fairds.Config{Seed: cfg.seed + 3})
	if err != nil {
		return nil, err
	}
	if cfg.k > 0 {
		err = ds.FitClustersK(ex, cfg.k)
	} else {
		err = ds.FitClusters(ex)
	}
	if err != nil {
		return nil, err
	}
	// Ingest all historical datasets with labels.
	for i, d := range seq {
		if _, err := ds.IngestLabeled(d, fmt.Sprintf("scan-%03d", i)); err != nil {
			return nil, err
		}
	}

	env := &braggEnv{patch: cfg.patch, schedule: schedule, seq: seq, ds: ds, zoo: fairms.NewZoo(), rng: rng}
	for i := 0; i < cfg.zooOn && i < len(seq); i++ {
		if err := env.addZooModel(i, cfg.zooEpochs); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// addZooModel trains a BraggNN on dataset i and registers it. Batch 16
// gives enough optimizer steps to converge on modest dataset sizes.
func (e *braggEnv) addZooModel(i, epochs int) error {
	m := models.NewBraggNN(e.rng, e.patch)
	x, y := collate(e.seq[i])
	opt := nn.NewAdam(m.Net.Params(), 2e-3)
	// A zoo seed model, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(m.Net, opt, x, m.Targets(y), x, m.Targets(y),
		nn.TrainConfig{Epochs: epochs, BatchSize: 16, Seed: int64(100 + i)})
	pdf, err := e.ds.DatasetPDF(x)
	if err != nil {
		return err
	}
	return e.zoo.Add(fmt.Sprintf("braggnn-%03d", i), m.Net.State(), pdf, map[string]string{"dataset": fmt.Sprintf("%d", i)})
}

// braggModel wraps a zoo state into a usable BraggNN.
func (e *braggEnv) braggModel(state *nn.StateDict) (*models.BraggNN, error) {
	m := models.NewBraggNN(e.rng, e.patch)
	if state != nil {
		if err := m.Net.LoadState(state); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// datasetTensors returns dataset i as (x, labels-in-pixels).
func (e *braggEnv) datasetTensors(i int) (*tensor.Tensor, *tensor.Tensor) {
	return collate(e.seq[i])
}

// cookieEnv is the analogous scaffold for CookieNetAE experiments: a
// gradually drifting CookieBox sequence with an autoencoder embedder (the
// paper's successful choice for CookieBox data).
type cookieEnv struct {
	size int
	seq  [][]*codec.Sample
	ds   *fairds.Service
	zoo  *fairms.Zoo
	rng  *rand.Rand
}

type cookieEnvConfig struct {
	size        int // image size (16 = quick; paper is 128)
	numDatasets int
	perDataset  int
	embedOn     int
	k           int
	zooOn       int
	zooEpochs   int
	seed        int64
}

func (c *cookieEnvConfig) defaults() {
	if c.size <= 0 {
		c.size = 16
	}
	if c.numDatasets <= 0 {
		c.numDatasets = 10
	}
	if c.perDataset <= 0 {
		c.perDataset = 40
	}
	if c.embedOn <= 0 {
		c.embedOn = 3
	}
	if c.zooEpochs <= 0 {
		c.zooEpochs = 20
	}
}

func newCookieEnv(cfg cookieEnvConfig) (*cookieEnv, error) {
	cfg.defaults()
	drift := datagen.DefaultCookieDrift()
	drift.Base.Size = cfg.size
	seq := drift.CookieExperiment(cfg.seed, cfg.numDatasets, cfg.perDataset)
	rng := rand.New(rand.NewSource(cfg.seed + 1))

	var early []*codec.Sample
	for i := 0; i < cfg.embedOn && i < len(seq); i++ {
		early = append(early, seq[i]...)
	}
	ex, _ := collate(early)
	// The autoencoder trains on [0,1]-scaled counts; the Scaled wrapper
	// keeps fairDS's raw-count interface while avoiding Tanh saturation.
	ae := embed.NewAutoencoder(rng, ex.Dim(1), 64, 8)
	ae.Train(tensor.Scale(ex, 1.0/255), embed.TrainConfig{Epochs: 20, BatchSize: 32, LR: 1e-3, Seed: cfg.seed + 2})
	embedder := embed.Scaled{E: ae, Factor: 1.0 / 255}

	store := docstore.NewStore().Collection("cookie")
	ds, err := fairds.New(embedder, store, fairds.Config{Seed: cfg.seed + 3})
	if err != nil {
		return nil, err
	}
	if cfg.k > 0 {
		err = ds.FitClustersK(ex, cfg.k)
	} else {
		err = ds.FitClusters(ex)
	}
	if err != nil {
		return nil, err
	}
	for i, d := range seq {
		if _, err := ds.IngestLabeled(d, fmt.Sprintf("run-%03d", i)); err != nil {
			return nil, err
		}
	}

	env := &cookieEnv{size: cfg.size, seq: seq, ds: ds, zoo: fairms.NewZoo(), rng: rng}
	for i := 0; i < cfg.zooOn && i < len(seq); i++ {
		if err := env.addZooModel(i, cfg.zooEpochs); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// addZooModel trains a CookieNetAE on dataset i and registers it.
func (e *cookieEnv) addZooModel(i, epochs int) error {
	m := models.NewCookieNetAE(e.rng, e.size)
	x, y := collate(e.seq[i])
	x = models.ScaleInputs(x)
	opt := nn.NewAdam(m.Net.Params(), 1e-3)
	// A zoo seed model, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(m.Net, opt, x, m.Targets(y), x, m.Targets(y),
		nn.TrainConfig{Epochs: epochs, BatchSize: 16, Seed: int64(200 + i)})
	// PDF computed over raw (unscaled) inputs, like ingestion.
	rawX, _ := collate(e.seq[i])
	pdf, err := e.ds.DatasetPDF(rawX)
	if err != nil {
		return err
	}
	return e.zoo.Add(fmt.Sprintf("cookienetae-%03d", i), m.Net.State(), pdf, map[string]string{"dataset": fmt.Sprintf("%d", i)})
}

func (e *cookieEnv) cookieModel(state *nn.StateDict) (*models.CookieNetAE, error) {
	m := models.NewCookieNetAE(e.rng, e.size)
	if state != nil {
		if err := m.Net.LoadState(state); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// datasetTensors returns dataset i as (raw x, clean-density labels).
func (e *cookieEnv) datasetTensors(i int) (*tensor.Tensor, *tensor.Tensor) {
	return collate(e.seq[i])
}

// scaleCookie maps 8-bit detector counts into [0, 1].
func scaleCookie(x *tensor.Tensor) *tensor.Tensor { return models.ScaleInputs(x) }
