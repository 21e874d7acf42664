package dmscluster_test

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
)

// TestTrainWaitThroughRouter: GET /v1/train/{id}?wait= through dmsrouter
// is the shard's long-poll. A job cancelled mid-wait is answered within a
// few ms of its FinishedAt; an unknown job is a 404 at once; and a client
// that gives up frees the router's handler and the shard's.
func TestTrainWaitThroughRouter(t *testing.T) {
	shard, addr := startShard(t, "w0", 1)
	cluster, err := dmscluster.New(dmscluster.Config{Shards: []string{addr}, BootstrapK: 2, Seed: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{})
	routerAddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(ctx)
	})
	client, err := dmsapi.NewClient(routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	corpus := braggCorpus(23, 40)
	if _, err := client.IngestBatch("train", corpus); err != nil {
		t.Fatal(err)
	}
	submitLong := func() dmsapi.TrainJob {
		t.Helper()
		job, err := client.SubmitTrain(dmsapi.TrainRequest{
			Samples: dmsapi.FromCodecSlice(corpus[:16]),
			Model:   "mlp", Hidden: 8, Epochs: 10_000_000, BatchSize: 4, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.CancelTrain(job.ID) })
		return job
	}

	// Cancelled mid-wait.
	job := submitLong()
	go func() {
		time.Sleep(100 * time.Millisecond)
		if _, err := client.CancelTrain(job.ID); err != nil {
			t.Errorf("cancel: %v", err)
		}
	}()
	sent := time.Now()
	if err := client.DoJSON(context.Background(), "GET", dmsapi.TrainJobPath(job.ID, dmsapi.MaxTrainWait), nil, &job); err != nil {
		t.Fatal(err)
	}
	seen := time.Now()
	if job.State != "canceled" || job.FinishedAt.Before(sent) {
		t.Fatalf("job %s answered %s (finished %v) %v after the wait began", job.ID, job.State, job.FinishedAt, seen.Sub(sent))
	}
	if over := seen.Sub(job.FinishedAt); over > 50*time.Millisecond {
		t.Fatalf("router answered %v after the job finished, want a few ms", over)
	}

	// Unknown: on a shard that exists, and without a shard tag at all.
	var se *dmsapi.StatusError
	for _, id := range []string{"s0!job-404404", "job-404404"} {
		start := time.Now()
		err := client.DoJSON(context.Background(), "GET", dmsapi.TrainJobPath(id, dmsapi.MaxTrainWait), nil, &dmsapi.TrainJob{})
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Fatalf("unknown job %s: want 404, got %v", id, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("unknown job %s answered after %v, want at once", id, d)
		}
	}

	// A client that gives up frees both tiers' handlers.
	long := submitLong()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- client.DoJSON(ctx, "GET", dmsapi.TrainJobPath(long.ID, dmsapi.MaxTrainWait), nil, &dmsapi.TrainJob{})
	}()
	busy := func() bool { return router.InFlight() > 0 || shard.InFlight() > 0 }
	for deadline := time.Now().Add(5 * time.Second); shard.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the long-poll never reached the shard")
		}
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled long-poll returned %v", err)
	}
	for deadline := time.Now().Add(2 * time.Second); busy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("handlers still run 2s after the client went away (router %d, shard %d)", router.InFlight(), shard.InFlight())
		}
	}
}
