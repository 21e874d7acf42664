package main

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/obs"
)

// startServer runs a dmsd-shaped server (unfitted, bootstrap on first
// ingest, embedder sized for the client's patches) and returns its address
// and a client for reading its state back.
func startServer(t *testing.T, trainWorkers int) (string, *dmsapi.Client) {
	t.Helper()
	ds, err := fairds.New(
		embed.NewAutoencoder(rand.New(rand.NewSource(1)), patch*patch, 64, 8),
		docstore.NewStore().Collection("fairds"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{DS: ds, Zoo: fairms.NewZoo(), BootstrapK: 8, TrainWorkers: trainWorkers})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	client, err := dmsapi.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return addr, client
}

// TestRemoteWorkflow drives, in process, the client internal/e2e runs
// against the real daemons: first with no -dms, against the services
// fairdms serves itself, then against an in-process dmsd-shaped server —
// the Fig. 5 workflow with local
// fine-tuning, then with server-side training, then the server-side run
// again against the same (now populated) server — the re-run must reuse
// the scan's registered model through the submit-time 409 rather than
// train a checkpoint that cannot be registered.
func TestRemoteWorkflow(t *testing.T) {
	for _, args := range [][]string{
		{"-scans", "5"},
		{"-scans", "5", "-server-train"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("fairdms %v: %v", args, err)
		}
	}

	addr, client := startServer(t, 1)

	// -scans 4 is one scan past the three warm-up scans; -scans 5 adds a
	// second, so the first -server-train run meets both the 409 path (scan
	// 3, registered by the local run) and a real job (scan 4).
	for _, step := range []struct {
		args       []string
		wantModels int   // zoo size afterwards: warm-up model + one per scan
		wantJobs   int64 // train jobs completed so far
	}{
		{[]string{"-dms", addr, "-scans", "4"}, 2, 0},
		{[]string{"-dms", addr, "-scans", "5", "-server-train"}, 3, 1},
		{[]string{"-dms", addr, "-scans", "5", "-server-train"}, 3, 1},
	} {
		if err := run(step.args); err != nil {
			t.Fatalf("fairdms %v: %v", step.args, err)
		}
		h, err := client.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.Models != step.wantModels {
			t.Fatalf("after fairdms %v the zoo holds %d models, want %d", step.args, h.Models, step.wantModels)
		}
		tc := trainCounters(t, client)
		if _, ok := tc["dms_train_submitted_total"]; !ok || tc["dms_train_failed_total"] != 0 ||
			tc["dms_train_completed_total"] != float64(step.wantJobs) || tc["dms_train_submitted_total"] != float64(step.wantJobs) {
			t.Fatalf("after fairdms %v the train counters read %v, want %d submitted and completed, none failed",
				step.args, tc, step.wantJobs)
		}
	}
}

// trainCounters reads the daemon's dms_train_* families off /metricsz.
func trainCounters(t *testing.T, c *dmsapi.Client) map[string]float64 {
	t.Helper()
	body, err := c.DoRaw(context.Background(), "GET", dmsapi.PathMetrics, nil)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, f := range fams {
		if strings.HasPrefix(f.Name, "dms_train_") && len(f.Samples) == 1 {
			out[f.Name] = f.Samples[0].Value
		}
	}
	return out
}

// TestServerTrainNeedsTrainingPlane pins the failure that gives
// internal/e2e's -server-train runs their meaning: against a daemon with
// no training plane (-train-workers 0) the -server-train run returns an
// error — a non-zero exit — instead of quietly deploying nothing.
func TestServerTrainNeedsTrainingPlane(t *testing.T) {
	addr, _ := startServer(t, 0)
	err := run([]string{"-dms", addr, "-scans", "4", "-server-train"})
	if !errors.Is(err, dmsapi.ErrNotFound) {
		t.Fatalf("-server-train without a training plane: got %v, want the train route's 404", err)
	}
}

// TestTooFewScansIsAUsageError: a run shorter than the warm-up scans has
// no workflow to run. run says so without touching the scans, and the
// command exits 2 with the usage, as for a flag that does not parse.
func TestTooFewScansIsAUsageError(t *testing.T) {
	if args := os.Getenv("FAIRDMS_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"fairdms"}, strings.Fields(args)...)
		main()
		return
	}
	for _, n := range []string{"2", "0", "-1"} {
		if err := run([]string{"-scans", n}); !errors.Is(err, errUsage) {
			t.Errorf("-scans %s: %v, want a usage error", n, err)
		}
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestTooFewScansIsAUsageError$")
	cmd.Env = append(os.Environ(), "FAIRDMS_TEST_MAIN_ARGS=-scans 2")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-scans 2") {
		t.Fatalf("fairdms -scans 2: %v, output:\n%s", err, out)
	}
}
