// Command cookiebox reproduces the CookieNetAE side of the evaluation
// (Figs. 11 and 13) as a runnable scenario: a drifting CookieBox detector
// simulation feeds a zoo of models; for a new run, fairMS ranks the zoo by
// JSD and the example compares fine-tuning the Best/Median/Worst
// recommendation against retraining from scratch.
//
// Run with: go run ./examples/cookiebox
package main

import (
	"fmt"
	"log"
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
	"fairdms/internal/trainer"
)

const (
	size     = 16
	numRuns  = 6
	perRun   = 48
	zooRuns  = 5
	ftEpochs = 18
)

func main() {
	rng := rand.New(rand.NewSource(31))
	drift := datagen.DefaultCookieDrift()
	drift.Base.Size = size
	runs := drift.CookieExperiment(32, numRuns, perRun)

	// Embedder: a denoising-style autoencoder works well for CookieBox
	// (the paper's successful pre-BYOL choice).
	var early []*codec.Sample
	for i := 0; i < 3; i++ {
		early = append(early, runs[i]...)
	}
	ex, err := fairds.Collate(early)
	check(err)
	ae := embed.NewAutoencoder(rng, ex.Dim(1), 64, 8)
	ae.Train(ex, embed.TrainConfig{Epochs: 20, BatchSize: 32, LR: 1e-3, Seed: 33})

	ds, err := fairds.New(ae, docstore.NewStore().Collection("cookiebox"), fairds.Config{Seed: 34})
	check(err)
	check(ds.FitClustersK(ex, 6))

	// Zoo: one CookieNetAE per historical run.
	zoo := fairms.NewZoo()
	for i := 0; i < zooRuns; i++ {
		m := models.NewCookieNetAE(rng, size)
		x, y := tensors(runs[i])
		sx := models.ScaleInputs(x)
		opt := nn.NewAdam(m.Net.Params(), 1e-3)
		// A zoo seed model, not the Fig. 5 action: a plain nn.Fit.
		nn.Fit(m.Net, opt, sx, m.Targets(y), sx, m.Targets(y),
			nn.TrainConfig{Epochs: 25, BatchSize: 16, Seed: int64(40 + i)})
		pdf, err := ds.DatasetPDF(x)
		check(err)
		check(zoo.Add(fmt.Sprintf("cookienetae-run%d", i), m.Net.State(), pdf, nil))
		fmt.Printf("— zoo model %d trained (loss %.4f)\n", i, m.Loss(sx, y))
	}

	// New run: rank the zoo.
	newX, newY := tensors(runs[numRuns-1])
	pdf, err := ds.DatasetPDF(newX)
	check(err)
	ranked, err := zoo.Rank(pdf)
	check(err)
	fmt.Println("\n— zoo ranking for the new run (ascending JSD):")
	for _, r := range ranked {
		fmt.Printf("  %-20s JSD %.4f\n", r.Record.ID, r.JSD)
	}

	best, median, worst, err := zoo.BestMedianWorst(pdf)
	check(err)

	// Compare the four training strategies of Fig. 13. Each runs
	// trainer.Fit, the fit step of a /v1/train job, at its learning rates.
	sx := models.ScaleInputs(newX)
	helper := models.NewCookieNetAE(rng, size)
	targets := helper.Targets(newY)
	fmt.Println("\n— validation loss per epoch (Fig. 13 style):")
	fmt.Println("strategy     first    last     epochs-to-halve-retrain-start")
	var target float64
	for _, s := range []struct {
		name  string
		state *nn.StateDict
	}{
		{"Retrain", nil},
		{"FineTune-B", best.Record.State},
		{"FineTune-M", median.Record.State},
		{"FineTune-W", worst.Record.State},
	} {
		m := models.NewCookieNetAE(rng, size)
		if s.state != nil {
			check(m.Net.LoadState(s.state))
		}
		curve := trainer.Fit(m.Net, sx, targets, s.state != nil,
			trainer.Spec{Epochs: ftEpochs, BatchSize: 16, Seed: 50}, nil, nil).ValLoss
		if s.state == nil { // Retrain runs first and sets the bar
			target = curve[0] / 2
		}
		reach := -1
		for i, v := range curve {
			if v <= target {
				reach = i + 1
				break
			}
		}
		fmt.Printf("%-12s %.4f   %.4f   %d\n", s.name, curve[0], curve[len(curve)-1], reach)
	}
	fmt.Printf("\nbest model JSD %.4f vs worst %.4f — ranking drives the convergence gap\n",
		best.JSD, worst.JSD)
}

func tensors(samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor) {
	x, err := fairds.Collate(samples)
	check(err)
	y := tensor.New(len(samples), len(samples[0].Label))
	for i, s := range samples {
		copy(y.Row(i), s.Label)
	}
	return x, y
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
