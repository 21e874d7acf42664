// Command fairdms runs the paper's end-to-end orchestrated workflow
// (Fig. 5 + §III-C): a Globus-Flows-style DAG coordinates funcX-style
// function execution and simulated Globus transfers between an
// "experimental facility" endpoint and an "HPC" endpoint:
//
//	acquire (facility) ──► transfer-data ──► rapid-train (hpc) ──► transfer-model ──► deploy (facility)
//
// The rapid-train action is fairDMS proper: certainty check, PDF-matched
// label retrieval, JSD model recommendation, fine-tuning, zoo update.
//
// Usage:
//
//	fairdms [-scans N] [-peaks N] [-dms addr] [-server-train] [-timescale f]
//
// The workflow always reaches the fairDMS services over HTTP, through a
// dmsapi.Client. With -dms they are a dmsd daemon (or a dmsrouter in front
// of several); without it, fairdms serves them itself on a loopback port:
// a BYOL embedder trained on the warm-up scans, K=8 clusters fitted on
// them, an empty zoo and a training plane, as a dmsd would hold them. The
// three-tier set-up is dstore ← dmsd -store ← fairdms -dms.
//
// Certainty, label lookup, PDF, recommendation, checkpoint download and
// model registration all cross the network; by default the fine-tuning
// itself runs in this process. -server-train moves it into the services:
// each scan becomes one async /v1/train job that warm-starts from the
// zoo's recommendation and registers its checkpoint with lineage, and the
// workflow just waits for the job and downloads the result.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/flow"
	"fairdms/internal/funcx"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
	"fairdms/internal/trainer"
	"fairdms/internal/transfer"
)

const patch = 9

// report is what one rapid-train action did, for the scan's summary line.
type report struct {
	Labeled    int
	LabelTime  time.Duration
	FineTuned  bool
	Foundation string  // zoo ID of the fine-tuning foundation ("" if scratch)
	JSD        float64 // divergence of the foundation's training data
	TrainTime  time.Duration
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run is main with the command line passed in and failures of the
// workflow returned, so a test (and CI, through the exit status) can drive
// the client against a live service. Wiring that can only fail on a
// programming error still exits through check.
func run(args []string) error {
	fs := flag.NewFlagSet("fairdms", flag.ExitOnError)
	scans := fs.Int("scans", 10, "number of scans in the simulated experiment")
	peaks := fs.Int("peaks", 60, "peaks per scan")
	dmsAddr := fs.String("dms", "", "external dmsd or dmsrouter address (empty = serve the services in-process)")
	serverTrain := fs.Bool("server-train", false,
		"train server-side via async /v1/train jobs (the services warm-start and register)")
	timescale := fs.Float64("timescale", 0.001, "transfer time compression (0 = no sleeping)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage, as flag.Parse did

	rng := rand.New(rand.NewSource(41))
	schedule := datagen.DefaultBraggDrift(*scans * 6 / 10)
	schedule.Base.Patch = patch
	schedule.JumpWidth = 0.1 * patch
	seq := schedule.BraggExperiment(42, *scans, *peaks)

	var warmup []*codec.Sample
	for i := 0; i < 3; i++ {
		warmup = append(warmup, seq[i]...)
	}

	addr := *dmsAddr
	if addr == "" {
		srv, err := serveInProcess(rng, warmup)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		addr = srv.Addr()
	}
	client, err := dmsapi.NewClient(addr)
	if err != nil {
		return err
	}
	defer client.Close()
	svc, err := newServices(client, rng, warmup)
	if err != nil {
		return err
	}
	svc.serverTrain = *serverTrain
	mode := "local fine-tuning"
	if *serverTrain {
		mode = "server-side /v1/train jobs"
	}
	log.Printf("fairdms: using fairDMS services at %s (%s)", addr, mode)

	// --- Orchestration fabric -------------------------------------------
	facility := transfer.NewEndpoint("facility")
	hpc := transfer.NewEndpoint("hpc")
	mover := transfer.NewService(*timescale)
	// 100 GbE facility↔HPC link, as in the paper's testbed.
	mover.SetLink("facility", "hpc", transfer.Link{Bandwidth: 12.5e9, Latency: 500 * time.Microsecond})
	mover.SetLink("hpc", "facility", transfer.Link{Bandwidth: 12.5e9, Latency: 500 * time.Microsecond})

	registry := funcx.NewRegistry()
	check(registry.Register("acquire", func(ctx context.Context, in any) (any, error) {
		scan := in.(int)
		// Serialize the scan to the facility endpoint, as the detector would.
		var buf bytes.Buffer
		for _, s := range seq[scan] {
			raw, err := (codec.Block{}).Encode(s)
			if err != nil {
				return nil, err
			}
			var lenb [4]byte
			putU32(lenb[:], uint32(len(raw)))
			buf.Write(lenb[:])
			buf.Write(raw)
		}
		facility.Put(blobName(scan), buf.Bytes())
		return len(seq[scan]), nil
	}))
	check(registry.Register("rapid-train", func(ctx context.Context, in any) (any, error) {
		scan := in.(int)
		raw, err := hpc.Get(blobName(scan))
		if err != nil {
			return nil, err
		}
		samples, err := decodeBlob(raw)
		if err != nil {
			return nil, err
		}
		model, rep, err := svc.rapidTrain(scan, samples)
		if err != nil {
			return nil, err
		}
		state, err := model.State().Bytes()
		if err != nil {
			return nil, err
		}
		hpc.Put(modelName(scan), state)
		return rep, nil
	}))

	edge := funcx.NewEndpoint("facility-edge", registry, 1, 8)
	defer edge.Close()
	compute := funcx.NewEndpoint("hpc-compute", registry, 2, 8)
	defer compute.Close()

	// --- Per-scan workflow ----------------------------------------------
	for scan := 3; scan < *scans; scan++ {
		wf := flow.New(fmt.Sprintf("update-scan-%02d", scan))
		wf.Add(flow.Action{
			Name: "acquire",
			Run: func(ctx context.Context, rc *flow.RunContext) error {
				n, err := edge.Call(ctx, "acquire", scan)
				if err != nil {
					return err
				}
				rc.Set("acquired", n)
				return nil
			},
		})
		wf.Add(flow.Action{
			Name: "transfer-data", DependsOn: []string{"acquire"}, Retries: 2,
			Run: func(ctx context.Context, rc *flow.RunContext) error {
				res, err := mover.Transfer(ctx, facility, hpc, blobName(scan))
				if err != nil {
					return err
				}
				rc.Set("data-transfer", res)
				return nil
			},
		})
		wf.Add(flow.Action{
			Name: "rapid-train", DependsOn: []string{"transfer-data"},
			Run: func(ctx context.Context, rc *flow.RunContext) error {
				rep, err := compute.Call(ctx, "rapid-train", scan)
				if err != nil {
					return err
				}
				rc.Set("report", rep)
				return nil
			},
		})
		wf.Add(flow.Action{
			Name: "transfer-model", DependsOn: []string{"rapid-train"}, Retries: 2,
			Run: func(ctx context.Context, rc *flow.RunContext) error {
				_, err := mover.Transfer(ctx, hpc, facility, modelName(scan))
				return err
			},
		})
		wf.Add(flow.Action{
			Name: "deploy", DependsOn: []string{"transfer-model"},
			Run: func(ctx context.Context, rc *flow.RunContext) error {
				return nil // the facility would hot-swap the surrogate here
			},
		})

		rc := flow.NewRunContext()
		report, err := wf.Execute(context.Background(), rc)
		if err != nil {
			return err
		}
		rep := mustReport(rc)
		xfer, _ := rc.Get("data-transfer")
		mode := "fine-tuned " + rep.Foundation
		if !rep.FineTuned {
			mode = "scratch"
		}
		fmt.Printf("scan %02d: flow %v | data %s | labels %d in %v | %s (JSD %.4f) | train %v\n",
			scan, report.Duration.Round(time.Millisecond),
			transferSummary(xfer), rep.Labeled, rep.LabelTime.Round(time.Millisecond),
			mode, rep.JSD, rep.TrainTime.Round(time.Millisecond))

		// Scan data becomes historical for subsequent scans.
		if err := svc.ingest(scan, seq[scan]); err != nil {
			return err
		}
	}
	fmt.Printf("workflow complete: %s\n", svc.summary())
	return nil
}

// serveInProcess stands up the fairDMS services on a loopback port, as a
// dmsd would hold them after a system-plane refresh on the warm-up scans:
// a BYOL embedder trained on them, K=8 clusters fitted on them, an empty
// zoo and a training plane. The caller shuts the server down.
func serveInProcess(rng *rand.Rand, warmup []*codec.Sample) (*dmsapi.Server, error) {
	wx, err := fairds.Collate(warmup)
	if err != nil {
		return nil, err
	}
	aug := embed.ImageAugmenter{H: patch, W: patch, Noise: 0.1, ScaleRange: 0.1}
	byol := embed.NewBYOL(rng, wx.Dim(1), 64, 8, aug.View, 0.95)
	byol.Train(wx, embed.TrainConfig{Epochs: 15, BatchSize: 32, LR: 2e-3, Seed: 43})
	ds, err := fairds.New(byol, docstore.NewStore().Collection("bragg"), fairds.Config{Seed: 44})
	if err != nil {
		return nil, err
	}
	if err := ds.FitClustersK(wx, 8); err != nil {
		return nil, err
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{DS: ds, Zoo: fairms.NewZoo(), TrainWorkers: trainer.DefaultWorkers})
	if err != nil {
		return nil, err
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return srv, nil
}

// ---------------------------------------------------------------------------
// The user-plane workflow against the services: every fairDMS call —
// certainty, label lookup, PDF, recommendation, checkpoint download, model
// registration — crosses the network. The fine-tuning itself runs here (it
// is the HPC job) unless serverTrain hands it to the services.

type services struct {
	client      *dmsapi.Client
	rng         *rand.Rand
	serverTrain bool // train via /v1/train jobs instead of locally
}

func newServices(client *dmsapi.Client, rng *rand.Rand, warmup []*codec.Sample) (*services, error) {
	svc := &services{client: client, rng: rng}

	// Warm-up: one combined ingest so a bootstrapping daemon's fit sees all
	// three scans, then a locally trained seed model registered under the
	// warm-up data's PDF.
	if _, err := client.Ingest("warmup", warmup); err != nil {
		return nil, fmt.Errorf("warmup ingest: %w", err)
	}
	pdf, err := client.PDF(warmup)
	if err != nil {
		return nil, fmt.Errorf("warmup pdf: %w", err)
	}
	wx, err := fairds.Collate(warmup)
	if err != nil {
		return nil, err
	}
	seedModel := models.NewBraggNN(rng, patch)
	wy := labelTensor(warmup)
	// The zoo's seed model, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(seedModel.Net, nn.NewAdam(seedModel.Net.Params(), 2e-3),
		wx, seedModel.Targets(wy), wx, seedModel.Targets(wy),
		nn.TrainConfig{Epochs: 40, BatchSize: 16, Seed: 45})
	dup, err := addModelTolerateDuplicate(client, "braggnn-warmup", seedModel.Net.State(), pdf, nil)
	if err != nil {
		return nil, fmt.Errorf("warmup model: %w", err)
	}
	if dup {
		log.Printf("fairdms: daemon already holds braggnn-warmup, reusing it")
	}
	return svc, nil
}

// addModelTolerateDuplicate registers a model, treating "already exists"
// as success: a long-lived daemon keeps models across fairdms runs, and a
// re-run reusing its registry is the service working as intended. Returns
// whether the model was already present.
func addModelTolerateDuplicate(client *dmsapi.Client, id string, state *nn.StateDict, pdf []float64, meta map[string]string) (bool, error) {
	err := client.AddModel(id, state, pdf, meta)
	if errors.Is(err, dmsapi.ErrDuplicateModel) {
		return true, nil
	}
	return false, err
}

// rapidTrain runs the rapid-train action for one scan. Unless serverTrain
// is set, it fine-tunes here through trainer.Fit, the fit step a /v1/train
// job runs, with the spec rapidTrainServer submits. It registers
// through POST /v1/models rather than submitting a /v1/train job because
// of the CI cluster smoke, which runs several of these clients at once
// through a dmsrouter: they register the same model ids, a duplicate add
// is a 409 each client tolerates, but two same-id train jobs land on one
// shard, where the loser fails or finds no checkpoint to download yet. It
// moves onto /v1/train once model registration is idempotent and
// train-registered models reach every shard (both open in ROADMAP.md).
func (svc *services) rapidTrain(scan int, samples []*codec.Sample) (*nn.Model, *report, error) {
	if svc.serverTrain {
		return svc.rapidTrainServer(scan, samples)
	}
	rep, labeled, err := svc.lookup(samples)
	if err != nil {
		return nil, nil, err
	}
	pdf, err := svc.client.PDF(samples)
	if err != nil {
		return nil, nil, fmt.Errorf("remote pdf: %w", err)
	}

	model := models.NewBraggNN(svc.rng, patch).Net
	rec, err := svc.client.Recommend(pdf, trainer.DefaultJSDThreshold)
	if err != nil {
		return nil, nil, fmt.Errorf("remote recommend: %w", err)
	}
	if rec.OK {
		sd, err := svc.client.Checkpoint(rec.ID)
		if err != nil {
			return nil, nil, fmt.Errorf("remote checkpoint %s: %w", rec.ID, err)
		}
		if err := model.LoadState(sd); err != nil {
			return nil, nil, fmt.Errorf("loading foundation %q: %w", rec.ID, err)
		}
		rep.FineTuned = true
		rep.Foundation = rec.ID
		rep.JSD = rec.JSD
	}

	x, err := fairds.Collate(labeled)
	if err != nil {
		return nil, nil, err
	}
	helper := &models.BraggNN{Patch: patch}
	y := helper.Targets(labelTensor(labeled))
	trainStart := time.Now()
	trainer.Fit(model, x, y, rep.FineTuned, trainer.Spec{Epochs: 25, BatchSize: 16, Seed: int64(50 + scan)}, nil, nil)
	rep.TrainTime = time.Since(trainStart)

	id := fmt.Sprintf("braggnn-scan%02d", scan)
	dup, err := addModelTolerateDuplicate(svc.client, id, model.State(), pdf, map[string]string{"scan": fmt.Sprint(scan)})
	if err != nil {
		return nil, nil, fmt.Errorf("registering %s: %w", id, err)
	}
	if dup {
		log.Printf("fairdms: daemon already holds %s, keeping its copy", id)
	}
	return model, rep, nil
}

// lookup is the start both paths share: the certainty check and the
// PDF-matched pseudo-labelling of the scan.
func (svc *services) lookup(samples []*codec.Sample) (*report, []*codec.Sample, error) {
	if _, err := svc.client.Certainty(samples, fairds.DefaultMembershipCut); err != nil {
		return nil, nil, fmt.Errorf("remote certainty: %w", err)
	}
	labelStart := time.Now()
	labeled, err := svc.client.Lookup(samples)
	if err != nil {
		return nil, nil, fmt.Errorf("remote label lookup: %w", err)
	}
	return &report{Labeled: len(labeled), LabelTime: time.Since(labelStart)}, labeled, nil
}

// rapidTrainServer pushes the training of the rapid-train action into the
// services: the workflow still runs the certainty check and the
// pseudo-labeling Lookup (so both paths train on the same PDF-matched
// historical labels and report comparable numbers), then one /v1/train
// job computes the PDF, picks the warm-start foundation, trains, and
// registers the checkpoint with lineage — the workflow waits for it and
// downloads the result for deploy.
func (svc *services) rapidTrainServer(scan int, samples []*codec.Sample) (*nn.Model, *report, error) {
	rep, labeled, err := svc.lookup(samples)
	if err != nil {
		return nil, nil, err
	}

	id := fmt.Sprintf("braggnn-scan%02d", scan)
	job, sd, err := svc.client.RapidTrain(dmsapi.TrainRequest{
		Samples:   dmsapi.FromCodecSlice(labeled),
		Model:     "braggnn",
		Epochs:    25,
		BatchSize: 16,
		MaxJSD:    trainer.DefaultJSDThreshold,
		Seed:      int64(50 + scan),
		ModelID:   id,
		Meta:      map[string]string{"scan": fmt.Sprint(scan)},
	}, 10*time.Minute)
	switch {
	case errors.Is(err, dmsapi.ErrDuplicateModel):
		// A re-run against a long-lived daemon finds the scan's model
		// already registered (409 at submit, nothing trained); reuse it like
		// the local path does. The report stays empty rather than claiming
		// training numbers for the previous run's model we actually deploy.
		log.Printf("fairdms: daemon already holds %s, reusing its copy", id)
		if sd, err = svc.client.Checkpoint(id); err != nil {
			return nil, nil, fmt.Errorf("fetching existing %s: %w", id, err)
		}
	case err != nil:
		return nil, nil, fmt.Errorf("server train job: %w", err)
	default:
		rep.FineTuned = job.Warm
		rep.Foundation = job.Foundation
		rep.JSD = job.JSD
		if !job.StartedAt.IsZero() && !job.FinishedAt.IsZero() {
			rep.TrainTime = job.FinishedAt.Sub(job.StartedAt)
		}
	}

	model := models.NewBraggNN(svc.rng, patch).Net
	if err := model.LoadState(sd); err != nil {
		return nil, nil, fmt.Errorf("loading server-trained %s: %w", id, err)
	}
	return model, rep, nil
}

func (svc *services) ingest(scan int, samples []*codec.Sample) error {
	_, err := svc.client.Ingest(fmt.Sprintf("scan-%02d", scan), samples)
	return err
}

func (svc *services) summary() string {
	h, err := svc.client.Health()
	if err != nil {
		return fmt.Sprintf("services unreachable: %v", err)
	}
	return fmt.Sprintf("zoo holds %d models, store holds %d samples", h.Models, h.Samples)
}

// ---------------------------------------------------------------------------

func blobName(scan int) string  { return fmt.Sprintf("scan-%02d.dat", scan) }
func modelName(scan int) string { return fmt.Sprintf("model-%02d.sd", scan) }

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func decodeBlob(raw []byte) ([]*codec.Sample, error) {
	var out []*codec.Sample
	for len(raw) >= 4 {
		n := int(getU32(raw[:4]))
		raw = raw[4:]
		if len(raw) < n {
			return nil, fmt.Errorf("fairdms: truncated scan blob")
		}
		s, err := (codec.Block{}).Decode(raw[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		raw = raw[n:]
	}
	return out, nil
}

func labelTensor(samples []*codec.Sample) *tensor.Tensor {
	y := tensor.New(len(samples), 2)
	for i, s := range samples {
		y.Set(s.Label[0], i, 0)
		y.Set(s.Label[1], i, 1)
	}
	return y
}

func mustReport(rc *flow.RunContext) *report {
	v := rc.MustGet("report")
	rep, ok := v.(*report)
	if !ok {
		log.Fatalf("fairdms: unexpected report type %T", v)
	}
	return rep
}

func transferSummary(v any) string {
	res, ok := v.(*transfer.Result)
	if !ok {
		return "?"
	}
	return fmt.Sprintf("%dB in %v (modeled)", res.Bytes, res.Modeled.Round(time.Microsecond))
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
