// Command quickstart walks the fairDMS happy path end to end on a small
// synthetic Bragg-peak workload:
//
//  1. generate labeled "historical" data from two experiment regimes,
//  2. train a self-supervised embedder (system plane),
//  3. fit the clustering module and ingest history into the data store,
//  4. take a new unlabeled dataset, compute its cluster PDF, and retrieve
//     PDF-matched labeled data (pseudo-labeling),
//  5. submit one trainer job on those labels: it ranks the model zoo by
//     Jensen–Shannon divergence, fine-tunes the recommendation and
//     registers the result.
//
// Run with: go run ./examples/quickstart
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
)

const patch = 9

func main() {
	start := time.Now()
	rng := rand.New(rand.NewSource(7))

	// 1. Historical data: two drifting regimes of an HEDM experiment.
	fmt.Println("— generating historical data (2 regimes × 150 peaks)")
	early := datagen.DefaultBraggRegime()
	early.Patch = patch
	late := early
	late.WidthMean += 1.0
	late.EtaMean = 0.8
	histA := early.Generate(rng, 150)
	histB := late.Generate(rng, 150)
	all := append(append([]*codec.Sample(nil), histA...), histB...)

	// 2. Self-supervised embedder (BYOL with rotation/flip augmentations).
	fmt.Println("— training BYOL embedder on history (system plane)")
	x, err := fairds.Collate(all)
	check(err)
	aug := embed.ImageAugmenter{H: patch, W: patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, x.Dim(1), 64, 8, aug.View, 0.95)
	losses := byol.Train(x, embed.TrainConfig{Epochs: 15, BatchSize: 32, LR: 2e-3, Seed: 8})
	fmt.Printf("  byol loss %.4f → %.4f\n", losses[0], losses[len(losses)-1])

	// 3. Data service: clustering (automatic K by elbow) + ingestion.
	store := docstore.NewStore().Collection("peaks")
	ds, err := fairds.New(byol, store, fairds.Config{Seed: 9})
	check(err)
	check(ds.FitClusters(x))
	fmt.Printf("— elbow method selected K=%d clusters (WSS curve: %d points)\n", ds.K(), len(ds.WSSCurve()))
	_, err = ds.IngestLabeled(all, "history")
	check(err)
	fmt.Printf("— ingested %d labeled samples into the data store\n", ds.StoreCount())

	// Zoo: one BraggNN per regime.
	zoo := fairms.NewZoo()
	for i, hist := range [][]*codec.Sample{histA, histB} {
		m := models.NewBraggNN(rng, patch)
		hx, hy := tensors(hist)
		opt := nn.NewAdam(m.Net.Params(), 2e-3)
		// A zoo seed model, not the Fig. 5 action: a plain nn.Fit.
		nn.Fit(m.Net, opt, hx, m.Targets(hy), hx, m.Targets(hy),
			nn.TrainConfig{Epochs: 30, BatchSize: 16, Seed: int64(10 + i)})
		pdf, err := ds.DatasetPDF(hx)
		check(err)
		check(zoo.Add(fmt.Sprintf("braggnn-regime%d", i), m.Net.State(), pdf, nil))
	}
	fmt.Printf("— model zoo holds %d checkpoints indexed by training PDF\n", zoo.Len())

	// 4+5. User plane: new unlabeled data from (a slightly drifted) regime
	// B. Its certainty and PDF-matched labels come from the data service;
	// one training job picks the foundation by JSD, fine-tunes it (or
	// trains from scratch past the threshold) and registers the result.
	newRegime := late
	newRegime.WidthMean += 0.1
	input := newRegime.Generate(rng, 80)
	ix, iy := tensors(input)
	cert, err := ds.Certainty(ix, fairds.DefaultMembershipCut)
	check(err)
	labelStart := time.Now()
	labeled, err := ds.LookupLabeled(ix)
	check(err)
	labelTime := time.Since(labelStart)

	mgr, err := trainer.New(trainer.Config{DS: ds, Zoo: zoo})
	check(err)
	mgr.Start()
	defer mgr.Shutdown(context.Background())
	st, err := mgr.Submit(trainer.Spec{Samples: labeled, Epochs: 25, BatchSize: 16, Seed: 12, ModelID: "braggnn-updated"})
	check(err)
	st, err = mgr.Wait(context.Background(), st.ID, time.Hour)
	check(err)
	if st.State != trainer.StateDone {
		log.Fatalf("training job ended %s: %s", st.State, st.Err)
	}

	fmt.Println("— rapid training report:")
	fmt.Printf("  clustering certainty  %.1f%%\n", 100*cert)
	fmt.Printf("  labeled data reused   %d samples in %v\n", len(labeled), labelTime.Round(time.Millisecond))
	if st.Warm {
		fmt.Printf("  foundation model      %s (JSD %.4f)\n", st.Foundation, st.JSD)
	} else {
		fmt.Println("  foundation model      none (trained from scratch)")
	}
	fmt.Printf("  training              %d epochs in %v\n", st.Epochs, st.FinishedAt.Sub(st.StartedAt).Round(time.Millisecond))

	// Check the updated model on the new data (we know the true labels).
	rec, err := zoo.Get(st.ModelID)
	check(err)
	final := models.NewBraggNN(rng, patch)
	check(final.Net.LoadState(rec.State))
	fmt.Printf("— updated model error on new data: %.3f px (total %v)\n",
		final.MeanErrorPx(ix, iy), time.Since(start).Round(time.Millisecond))
}

func tensors(samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor) {
	x, err := fairds.Collate(samples)
	check(err)
	y := tensor.New(len(samples), 2)
	for i, s := range samples {
		y.Set(s.Label[0], i, 0)
		y.Set(s.Label[1], i, 1)
	}
	return x, y
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
