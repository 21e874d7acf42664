// Package integration exercises fairDMS across module boundaries the way a
// deployment would: remote document store over TCP, self-supervised
// embeddings, a zoo kept in that store, and the end-to-end rapid-training
// path.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
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

// system is a full fairDMS against a TCP docstore: the data service, the
// zoo, a training manager over both, the remote sample collection (for
// tests that reopen what the system stored), the scan sequence whose first
// three scans are the history, and the rng the models are built from.
type system struct {
	ds    *fairds.Service
	zoo   *fairms.Zoo
	mgr   *trainer.Manager
	store fairds.RemoteCollection
	seq   [][]*codec.Sample
	rng   *rand.Rand
}

// buildRemoteSystem assembles a system. Over the healthy link the zoo is
// kept in the store too; the faulty link keeps a memory-only zoo (the
// client's retry after a dropped connection can re-send a commit that
// already applied — ROADMAP item 3).
func buildRemoteSystem(t *testing.T, faulty bool) *system {
	t.Helper()
	cfg := docstore.ServerConfig{}
	if faulty {
		cfg.FaultRate = 0.05
		cfg.FaultSeed = 99
	}
	srv := docstore.NewServer(docstore.NewStore(), cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := docstore.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	rng := rand.New(rand.NewSource(61))
	schedule := datagen.DefaultBraggDrift(100)
	schedule.Base.Patch = patch
	seq := schedule.BraggExperiment(62, 4, 70)

	var hist []*codec.Sample
	for _, d := range seq[:3] {
		hist = append(hist, d...)
	}
	hx, err := fairds.Collate(hist)
	if err != nil {
		t.Fatal(err)
	}
	aug := embed.ImageAugmenter{H: patch, W: patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, hx.Dim(1), 64, 8, aug.View, 0.95)
	byol.Train(hx, embed.TrainConfig{Epochs: 10, BatchSize: 32, LR: 2e-3, Seed: 63})

	store := fairds.RemoteCollection{Client: client, Name: "bragg"}
	ds, err := fairds.New(byol, store, fairds.Config{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.FitClustersK(hx, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.IngestLabeled(hist, "history"); err != nil {
		t.Fatal(err)
	}

	zoo := fairms.NewZoo()
	if !faulty {
		if zoo, err = fairms.OpenZoo(store.Sibling(".zoo")); err != nil {
			t.Fatal(err)
		}
	}
	m := models.NewBraggNN(rng, patch)
	hy := labelTensor(hist)
	nn.Fit(m.Net, nn.NewAdam(m.Net.Params(), 2e-3), hx, m.Targets(hy), hx, m.Targets(hy),
		nn.TrainConfig{Epochs: 30, BatchSize: 16, Seed: 65})
	pdf, err := ds.DatasetPDF(hx)
	if err != nil {
		t.Fatal(err)
	}
	if err := zoo.Add("foundation", m.Net.State(), pdf, map[string]string{fairms.MetaFit: ds.FitID()}); err != nil {
		t.Fatal(err)
	}

	mgr, err := trainer.New(trainer.Config{DS: ds, Zoo: zoo, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			t.Errorf("trainer shutdown: %v", err)
		}
	})
	return &system{ds: ds, zoo: zoo, mgr: mgr, store: store, seq: seq, rng: rng}
}

func labelTensor(samples []*codec.Sample) *tensor.Tensor {
	y := tensor.New(len(samples), 2)
	for i, s := range samples {
		y.Set(s.Label[0], i, 0)
		y.Set(s.Label[1], i, 1)
	}
	return y
}

// rapidTrain is the Fig. 5 action on new unlabeled input: the certainty
// check, PDF-matched pseudo-labelling, and one training job on the labels
// found, registered as id. It returns the finished job and the model it
// registered.
func (sys *system) rapidTrain(input []*codec.Sample, id string) (*nn.Model, *trainer.Status, error) {
	x, err := fairds.Collate(input)
	if err != nil {
		return nil, nil, err
	}
	if _, err := sys.ds.Certainty(x, fairds.DefaultMembershipCut); err != nil {
		return nil, nil, err
	}
	labeled, err := sys.ds.LookupLabeled(x)
	if err != nil {
		return nil, nil, err
	}
	st, err := sys.mgr.Submit(trainer.Spec{Samples: labeled, Epochs: 15, BatchSize: 16, Seed: 67, ModelID: id})
	if err != nil {
		return nil, nil, err
	}
	if st, err = sys.mgr.Wait(context.Background(), st.ID, time.Minute); err != nil {
		return nil, nil, err
	}
	if st.State != trainer.StateDone {
		return nil, nil, fmt.Errorf("training job %s ended %s: %s", st.ID, st.State, st.Err)
	}
	rec, err := sys.zoo.Get(st.ModelID)
	if err != nil {
		return nil, nil, err
	}
	m := models.NewBraggNN(sys.rng, patch)
	return m.Net, st, m.Net.LoadState(rec.State)
}

func TestRapidTrainOverRemoteStore(t *testing.T) {
	sys := buildRemoteSystem(t, false)
	model, st, err := sys.rapidTrain(sys.seq[3], "updated")
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples == 0 {
		t.Fatalf("remote rapid train produced no data: %+v", st)
	}
	if !st.Warm || st.Foundation != "foundation" {
		t.Fatalf("expected fine-tuning from the seeded foundation, got %+v", st)
	}
	if _, err := sys.zoo.Get("updated"); err != nil {
		t.Fatalf("updated model missing from zoo: %v", err)
	}
	// The updated surrogate is accurate on the new data.
	x, y := mustTensors(t, sys.seq[3])
	final := &models.BraggNN{Net: model, Patch: patch}
	if errPx := final.MeanErrorPx(x, y); errPx > 1.5 {
		t.Fatalf("updated model error %.3f px over remote store", errPx)
	}
}

func TestRapidTrainSurvivesFaultyStore(t *testing.T) {
	// 5% of store requests drop the connection; the pooled client's retry
	// must keep the end-to-end path alive.
	sys := buildRemoteSystem(t, true)
	_, st, err := sys.rapidTrain(sys.seq[3], "updated-faulty")
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples == 0 {
		t.Fatal("no labels retrieved through the faulty store")
	}
}

func mustTensors(t *testing.T, samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	x, err := fairds.Collate(samples)
	if err != nil {
		t.Fatal(err)
	}
	return x, labelTensor(samples)
}

// TestZooPersistenceAcrossRestart: everything the services know is in the
// store. A second data service and zoo opened over the same remote
// collections — no snapshot saved, nothing refitted — serve the first
// pair's clustering and models.
func TestZooPersistenceAcrossRestart(t *testing.T) {
	sys := buildRemoteSystem(t, false)
	if _, _, err := sys.rapidTrain(sys.seq[3], "gen2"); err != nil {
		t.Fatal(err)
	}
	// "Restart": reopen both services over the store alone.
	ds2, err := fairds.New(sys.ds.Embedder(), sys.store, fairds.Config{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ds2.K() != sys.ds.K() || ds2.FitID() == "" || ds2.FitID() != sys.ds.FitID() {
		t.Fatalf("reopened data service: k=%d fit=%q, want k=%d fit=%q", ds2.K(), ds2.FitID(), sys.ds.K(), sys.ds.FitID())
	}
	zoo2, err := fairms.OpenZoo(sys.store.Sibling(".zoo"))
	if err != nil {
		t.Fatal(err)
	}
	if got := zoo2.IDs(); len(got) != 2 || got[0] != "foundation" || got[1] != "gen2" {
		t.Fatalf("reopened zoo lists %v", got)
	}
	x, _ := mustTensors(t, sys.seq[3])
	pdf, err := ds2.DatasetPDF(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.ds.DatasetPDF(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if pdf[i] != want[i] {
			t.Fatalf("reopened data service computes PDF %v, the live one %v", pdf, want)
		}
	}
	ranked, err := zoo2.RankFit(ds2.FitID(), pdf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || ranked[0].Record.ID != "gen2" {
		t.Fatalf("reopened zoo ranks %v, want the freshly trained gen2 first", ranked)
	}
	// Reloaded weights are usable.
	m := models.NewBraggNN(sys.rng, patch)
	if err := m.Net.LoadState(ranked[0].Record.State); err != nil {
		t.Fatal(err)
	}
}
