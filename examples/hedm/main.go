// Command hedm simulates the paper's motivating scenario (Figs. 1–2 and
// §III-H): a long-running High-Energy X-ray Diffraction Microscopy
// experiment whose sample deforms mid-run. A BraggNN surrogate analyzes
// each scan; fairDMS monitors clustering certainty and MC-dropout
// uncertainty, and when the deformation degrades the model it performs a
// rapid update — reusing historical labels via fairDS and fine-tuning the
// JSD-recommended zoo model via fairMS — instead of the legacy
// label-everything-and-retrain-from-scratch loop.
//
// Run with: go run ./examples/hedm
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

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
	"fairdms/internal/uq"
)

const (
	patch       = 9
	numScans    = 14
	peaksPer    = 80
	driftAt     = 8
	warmupScans = 3
	// certaintyTrigger is the clustering certainty below which a scan is
	// unfamiliar enough to update the surrogate (the paper uses 0.8).
	certaintyTrigger = 0.8
)

func main() {
	rng := rand.New(rand.NewSource(21))
	schedule := datagen.DefaultBraggDrift(driftAt)
	schedule.Base.Patch = patch
	schedule.JumpWidth = 0.1 * patch
	scans := schedule.BraggExperiment(22, numScans, peaksPer)

	// System plane setup on the warmup scans.
	var warmup []*codec.Sample
	for i := 0; i < warmupScans; i++ {
		warmup = append(warmup, scans[i]...)
	}
	wx, err := fairds.Collate(warmup)
	check(err)
	aug := embed.ImageAugmenter{H: patch, W: patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, wx.Dim(1), 64, 8, aug.View, 0.95)
	byol.Train(wx, embed.TrainConfig{Epochs: 15, BatchSize: 32, LR: 2e-3, Seed: 23})

	ds, err := fairds.New(byol, docstore.NewStore().Collection("hedm"), fairds.Config{Seed: 24})
	check(err)
	check(ds.FitClustersK(wx, 8))
	for i := 0; i < warmupScans; i++ {
		_, err := ds.IngestLabeled(scans[i], fmt.Sprintf("scan-%02d", i))
		check(err)
	}

	// Initial surrogate, trained on warmup data, registered in the zoo.
	surrogate := models.NewBraggNN(rng, patch)
	wy := labels(warmup)
	opt := nn.NewAdam(surrogate.Net.Params(), 2e-3)
	// The zoo's seed model, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(surrogate.Net, opt, wx, surrogate.Targets(wy), wx, surrogate.Targets(wy),
		nn.TrainConfig{Epochs: 40, BatchSize: 16, Seed: 25})
	zoo := fairms.NewZoo()
	pdf, err := ds.DatasetPDF(wx)
	check(err)
	check(zoo.Add("braggnn-warmup", surrogate.Net.State(), pdf, nil))

	mgr, err := trainer.New(trainer.Config{DS: ds, Zoo: zoo})
	check(err)
	mgr.Start()
	defer mgr.Shutdown(context.Background())

	detector := &uq.DriftDetector{Warmup: warmupScans, Threshold: 1.6}
	fmt.Println("scan  err(px)  mc-unc   certainty  action")
	fmt.Println("----  -------  -------  ---------  ------")
	updates := 0
	for i := warmupScans; i < numScans; i++ {
		x, y := tensors(scans[i])
		errPx := surrogate.MeanErrorPx(x, y)
		unc, err := uq.MeanUncertainty(surrogate.Net, x, 12)
		check(err)
		cert, err := ds.Certainty(x, fairds.DefaultMembershipCut)
		check(err)

		action := "ok"
		if detector.Observe(errPx) || cert < certaintyTrigger {
			updates++
			start := time.Now()
			labeled, err := ds.LookupLabeled(x)
			check(err)
			st, err := mgr.Submit(trainer.Spec{
				Samples:   labeled,
				Epochs:    30,
				BatchSize: 16,
				Seed:      int64(30 + i),
				ModelID:   fmt.Sprintf("braggnn-scan%02d", i),
			})
			check(err)
			st, err = mgr.Wait(context.Background(), st.ID, time.Hour)
			check(err)
			if st.State != trainer.StateDone {
				log.Fatalf("scan %d: training job ended %s: %s", i, st.State, st.Err)
			}
			rec, err := zoo.Get(st.ModelID)
			check(err)
			surrogate = models.NewBraggNN(rng, patch)
			check(surrogate.Net.LoadState(rec.State))
			path := "fine-tuned " + st.Foundation
			if !st.Warm {
				path = "scratch"
			}
			action = fmt.Sprintf("RAPID UPDATE (%s, %v)", path, time.Since(start).Round(time.Millisecond))
		}
		fmt.Printf("%4d  %7.3f  %7.4f  %8.1f%%  %s\n", i, errPx, unc, 100*cert, action)

		// New scan data becomes historical once processed.
		_, err = ds.IngestLabeled(scans[i], fmt.Sprintf("scan-%02d", i))
		check(err)
	}
	fmt.Printf("\n%d rapid updates over %d scans; zoo now holds %d models\n",
		updates, numScans-warmupScans, zoo.Len())
	for _, id := range zoo.IDs() {
		rec, err := zoo.Get(id)
		check(err)
		if parent := rec.Parent(); parent != "" {
			fmt.Printf("  %s fine-tuned from %s\n", id, parent)
		}
	}
}

func labels(samples []*codec.Sample) *tensor.Tensor {
	y := tensor.New(len(samples), 2)
	for i, s := range samples {
		y.Set(s.Label[0], i, 0)
		y.Set(s.Label[1], i, 1)
	}
	return y
}

func tensors(samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor) {
	x, err := fairds.Collate(samples)
	check(err)
	return x, labels(samples)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
