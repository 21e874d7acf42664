// Package integration exercises fairDMS across module boundaries the way a
// deployment would: remote document store over TCP, self-supervised
// embeddings, a zoo kept in that store, workflow orchestration, and the end-to-end
// rapid-training path.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/core"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/flow"
	"fairdms/internal/funcx"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
	"fairdms/internal/transfer"
)

const patch = 9

// buildRemoteSystem assembles a full fairDMS against a TCP docstore.
func buildRemoteSystem(t *testing.T, faulty bool) (*core.System, [][]*codec.Sample, *rand.Rand) {
	t.Helper()
	sys, seq, rng, _ := buildRemoteSystemAndStore(t, faulty)
	return sys, seq, rng
}

// buildRemoteSystemAndStore is buildRemoteSystem that also hands out the
// remote sample collection, for tests that reopen what the system stored.
// Over the healthy link the zoo is kept in the store too; the faulty link
// keeps a memory-only zoo (the client's retry after a dropped connection
// can re-send a commit that already applied — ROADMAP item 3).
func buildRemoteSystemAndStore(t *testing.T, faulty bool) (*core.System, [][]*codec.Sample, *rand.Rand, fairds.RemoteCollection) {
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

	sys, err := core.New(ds, zoo, core.Config{Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	return sys, seq, rng, store
}

func labelTensor(samples []*codec.Sample) *tensor.Tensor {
	y := tensor.New(len(samples), 2)
	for i, s := range samples {
		y.Set(s.Label[0], i, 0)
		y.Set(s.Label[1], i, 1)
	}
	return y
}

func braggRequest(rng *rand.Rand, input []*codec.Sample, id string) core.Request {
	return core.Request{
		Input: input,
		NewModel: func() *nn.Model {
			return models.NewBraggNN(rng, patch).Net
		},
		Prep: func(samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor, error) {
			x, err := fairds.Collate(samples)
			if err != nil {
				return nil, nil, err
			}
			helper := &models.BraggNN{Patch: patch}
			return x, helper.Targets(labelTensor(samples)), nil
		},
		Train:   nn.TrainConfig{Epochs: 15, BatchSize: 16, Seed: 67},
		ModelID: id,
	}
}

func TestRapidTrainOverRemoteStore(t *testing.T) {
	sys, seq, rng := buildRemoteSystem(t, false)
	model, rep, err := sys.RapidTrain(braggRequest(rng, seq[3], "updated"))
	if err != nil {
		t.Fatal(err)
	}
	if model == nil || rep.Labeled == 0 {
		t.Fatalf("remote rapid train produced no data: %+v", rep)
	}
	if !rep.FineTuned || rep.Foundation != "foundation" {
		t.Fatalf("expected fine-tuning from the seeded foundation, got %+v", rep)
	}
	// The updated surrogate is accurate on the new data.
	x, y := mustTensors(t, seq[3])
	final := &models.BraggNN{Net: model, Patch: patch}
	if errPx := final.MeanErrorPx(x, y); errPx > 1.5 {
		t.Fatalf("updated model error %.3f px over remote store", errPx)
	}
}

func TestRapidTrainSurvivesFaultyStore(t *testing.T) {
	// 5% of store requests drop the connection; the pooled client's retry
	// must keep the end-to-end path alive.
	sys, seq, rng := buildRemoteSystem(t, true)
	_, rep, err := sys.RapidTrain(braggRequest(rng, seq[3], "updated-faulty"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Labeled == 0 {
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
	sys, seq, rng, store := buildRemoteSystemAndStore(t, false)
	if _, _, err := sys.RapidTrain(braggRequest(rng, seq[3], "gen2")); err != nil {
		t.Fatal(err)
	}
	// "Restart": reopen both services over the store alone.
	ds2, err := fairds.New(sys.DS.Embedder(), store, fairds.Config{Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ds2.K() != sys.DS.K() || ds2.FitID() == "" || ds2.FitID() != sys.DS.FitID() {
		t.Fatalf("reopened data service: k=%d fit=%q, want k=%d fit=%q", ds2.K(), ds2.FitID(), sys.DS.K(), sys.DS.FitID())
	}
	zoo2, err := fairms.OpenZoo(store.Sibling(".zoo"))
	if err != nil {
		t.Fatal(err)
	}
	if got := zoo2.IDs(); len(got) != 2 || got[0] != "foundation" || got[1] != "gen2" {
		t.Fatalf("reopened zoo lists %v", got)
	}
	x, _ := mustTensors(t, seq[3])
	pdf, err := ds2.DatasetPDF(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DS.DatasetPDF(x)
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
	m := models.NewBraggNN(rng, patch)
	if err := m.Net.LoadState(ranked[0].Record.State); err != nil {
		t.Fatal(err)
	}
}

func TestOrchestratedUpdateFlow(t *testing.T) {
	// The cmd/fairdms workflow in miniature: acquire → transfer →
	// rapid-train → transfer-model, driven by the flow engine with funcx
	// endpoints and the simulated mover.
	sys, seq, rng := buildRemoteSystem(t, false)

	facility := transfer.NewEndpoint("facility")
	hpc := transfer.NewEndpoint("hpc")
	mover := transfer.NewService(0)
	registry := funcx.NewRegistry()

	if err := registry.Register("acquire", func(ctx context.Context, in any) (any, error) {
		var payload []byte
		for _, s := range seq[3] {
			raw, err := (codec.Raw{}).Encode(s)
			if err != nil {
				return nil, err
			}
			var lenb [4]byte
			lenb[0], lenb[1], lenb[2], lenb[3] = byte(len(raw)), byte(len(raw)>>8), byte(len(raw)>>16), byte(len(raw)>>24)
			payload = append(payload, lenb[:]...)
			payload = append(payload, raw...)
		}
		facility.Put("scan.dat", payload)
		return len(seq[3]), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := registry.Register("rapid-train", func(ctx context.Context, in any) (any, error) {
		raw, err := hpc.Get("scan.dat")
		if err != nil {
			return nil, err
		}
		var samples []*codec.Sample
		for len(raw) >= 4 {
			n := int(raw[0]) | int(raw[1])<<8 | int(raw[2])<<16 | int(raw[3])<<24
			raw = raw[4:]
			s, err := (codec.Raw{}).Decode(raw[:n])
			if err != nil {
				return nil, err
			}
			samples = append(samples, s)
			raw = raw[n:]
		}
		model, rep, err := sys.RapidTrain(braggRequest(rng, samples, "flow-model"))
		if err != nil {
			return nil, err
		}
		state, err := model.State().Bytes()
		if err != nil {
			return nil, err
		}
		hpc.Put("model.sd", state)
		return rep, nil
	}); err != nil {
		t.Fatal(err)
	}

	edge := funcx.NewEndpoint("edge", registry, 1, 4)
	defer edge.Close()
	compute := funcx.NewEndpoint("compute", registry, 1, 4)
	defer compute.Close()

	wf := flow.New("update")
	wf.Add(flow.Action{Name: "acquire", Run: func(ctx context.Context, rc *flow.RunContext) error {
		_, err := edge.Call(ctx, "acquire", nil)
		return err
	}})
	wf.Add(flow.Action{Name: "transfer-data", DependsOn: []string{"acquire"}, Retries: 1,
		Run: func(ctx context.Context, rc *flow.RunContext) error {
			_, err := mover.Transfer(ctx, facility, hpc, "scan.dat")
			return err
		}})
	wf.Add(flow.Action{Name: "rapid-train", DependsOn: []string{"transfer-data"},
		Run: func(ctx context.Context, rc *flow.RunContext) error {
			rep, err := compute.Call(ctx, "rapid-train", nil)
			if err != nil {
				return err
			}
			rc.Set("report", rep)
			return nil
		}})
	wf.Add(flow.Action{Name: "transfer-model", DependsOn: []string{"rapid-train"},
		Run: func(ctx context.Context, rc *flow.RunContext) error {
			_, err := mover.Transfer(ctx, hpc, facility, "model.sd")
			return err
		}})

	rc := flow.NewRunContext()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	report, err := wf.Execute(ctx, rc)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range report.Actions {
		if a.State != flow.Succeeded {
			t.Fatalf("action %s finished %s", name, a.State)
		}
	}
	rep, ok := rc.MustGet("report").(*core.Report)
	if !ok {
		t.Fatalf("unexpected report type")
	}
	if !rep.FineTuned {
		t.Fatal("orchestrated run did not fine-tune")
	}
	// The model arrived back at the facility and deserializes.
	raw, err := facility.Get("model.sd")
	if err != nil {
		t.Fatal(err)
	}
	sd, err := nn.StateDictFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	m := models.NewBraggNN(rng, patch)
	if err := m.Net.LoadState(sd); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Zoo.Get("flow-model"); err != nil {
		t.Fatal("flow-trained model missing from zoo")
	}
	_ = fmt.Sprint(report.Duration)
}
