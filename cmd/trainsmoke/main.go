// Command trainsmoke is the CI probe for the server-side training plane:
// against a live dmsd it ingests a small labeled corpus (bootstrap-fitting
// a fresh daemon), submits one tiny /v1/train job, polls it to "done",
// and verifies the checkpoint landed in the zoo and the /statsz train
// gauges moved. Exit status is non-zero on any failure, which is the
// contract the CI dmsd-smoke step relies on.
//
// Usage:
//
//	dmsd -addr 127.0.0.1:7718 &
//	trainsmoke -addr 127.0.0.1:7718 [-timeout 2m]
package main

import (
	"flag"
	"log"
	"math/rand"
	"time"

	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7718", "dmsd address to probe")
	timeout := flag.Duration("timeout", 2*time.Minute, "end-to-end deadline for the train job")
	flag.Parse()

	client, err := dmsapi.NewClient(*addr)
	if err != nil {
		log.Fatalf("trainsmoke: %v", err)
	}
	defer client.Close()

	// A small labeled Bragg corpus: enough to bootstrap-fit a fresh
	// daemon's clustering module and feed one quick job.
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 11
	samples := regime.Generate(rand.New(rand.NewSource(1)), 96)
	if _, err := client.Ingest("trainsmoke", samples); err != nil {
		log.Fatalf("trainsmoke: ingest: %v", err)
	}
	log.Printf("trainsmoke: ingested %d samples", len(samples))

	job, sd, err := client.RapidTrain(dmsapi.TrainRequest{
		Dataset:   "trainsmoke",
		Model:     "mlp",
		Hidden:    16,
		Epochs:    3,
		BatchSize: 16,
		Seed:      1,
		ModelID:   "trainsmoke-model",
	}, *timeout)
	if err != nil {
		log.Fatalf("trainsmoke: rapid-train: %v (job %+v)", err, job)
	}
	if job.Epochs == 0 || len(sd.Values) == 0 {
		log.Fatalf("trainsmoke: job done but empty: epochs=%d params=%d", job.Epochs, len(sd.Values))
	}
	log.Printf("trainsmoke: job %s done in %d epochs (warm=%v), checkpoint %s has %d params",
		job.ID, job.Epochs, job.Warm, job.ModelID, len(sd.Values))

	stats, err := client.ServerStats()
	if err != nil {
		log.Fatalf("trainsmoke: /statsz: %v", err)
	}
	if stats.Train == nil {
		log.Fatal("trainsmoke: /statsz has no train block (training disabled?)")
	}
	if stats.Train.Completed < 1 {
		log.Fatalf("trainsmoke: train gauges did not move: %+v", stats.Train)
	}
	log.Printf("trainsmoke: OK — train gauges %+v", *stats.Train)
}
