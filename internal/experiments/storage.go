package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dataloader"
	"fairdms/internal/docstore"
	"fairdms/internal/filestore"
	"fairdms/internal/tensor"
)

// StorageKind selects the dataset for a storage sweep.
type StorageKind string

// The three datasets of Figs. 6–8.
const (
	StorageTomography StorageKind = "tomography" // Fig. 6
	StorageCookieBox  StorageKind = "cookiebox"  // Fig. 7
	StorageBragg      StorageKind = "bragg"      // Fig. 8
)

// StorageConfig sizes a Figs. 6–8 style sweep.
type StorageConfig struct {
	Kind       StorageKind
	Samples    int   // dataset size (default 256)
	BatchSizes []int // default {16, 32, 64, 128}
	Workers    []int // default {1, 2, 4, 8, 16}
	// FixedWorkers is used during the batch-size sweep (paper: 50).
	FixedWorkers int
	// FixedBatch is used during the worker sweep (paper: 512).
	FixedBatch int
	// ComputePerSample models the per-sample training compute an epoch
	// overlaps with I/O (prefetch hides I/O behind it). Default 40µs.
	ComputePerSample time.Duration
	// ServerLatency adds per-request delay on the docstore server,
	// emulating the remote (100GbE) placement. Default 150µs.
	ServerLatency time.Duration
	Dir           string // scratch directory for the filestore ("NFS")
	Seed          int64
}

func (c *StorageConfig) defaults() {
	if c.Samples <= 0 {
		c.Samples = 256
	}
	if len(c.BatchSizes) == 0 {
		c.BatchSizes = []int{16, 32, 64, 128}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4, 8, 16}
	}
	if c.FixedWorkers <= 0 {
		c.FixedWorkers = 8
	}
	if c.FixedBatch <= 0 {
		c.FixedBatch = 64
	}
	if c.ComputePerSample <= 0 {
		c.ComputePerSample = 40 * time.Microsecond
	}
	if c.ServerLatency <= 0 {
		c.ServerLatency = 150 * time.Microsecond
	}
}

// StorageSeries is the measured series for one backend.
type StorageSeries struct {
	Backend   string          // "blosc", "pickle", "nfs"
	EpochTime []time.Duration // per batch size
	IOPerIter []time.Duration // per worker count
}

// StorageResult holds a full sweep.
type StorageResult struct {
	Kind       StorageKind
	BatchSizes []int
	Workers    []int
	Series     []StorageSeries
}

// Table renders the two subfigures' data.
func (r *StorageResult) Table() string {
	ta := &table{header: append([]string{"epoch-time/batch"}, intsToStrings(r.BatchSizes)...)}
	for _, s := range r.Series {
		row := []string{s.Backend}
		for _, d := range s.EpochTime {
			row = append(row, d.Round(time.Millisecond).String())
		}
		ta.add(row...)
	}
	tb := &table{header: append([]string{"io-time/workers"}, intsToStrings(r.Workers)...)}
	for _, s := range r.Series {
		row := []string{s.Backend}
		for _, d := range s.IOPerIter {
			row = append(row, d.Round(10*time.Microsecond).String())
		}
		tb.add(row...)
	}
	return fmt.Sprintf("Storage sweep (%s)\n(a) epoch time vs batch size [workers=fixed]\n%s\n(b) I/O time per iteration vs workers [batch=fixed]\n%s",
		r.Kind, ta, tb)
}

func intsToStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

// generateStorageSamples builds the dataset for the sweep.
func generateStorageSamples(kind StorageKind, n int, seed int64) []*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case StorageTomography:
		r := datagen.DefaultTomoRegime()
		return r.Generate(rng, n)
	case StorageCookieBox:
		r := datagen.DefaultCookieRegime()
		out := make([]*codec.Sample, n)
		for i := range out {
			s := r.GenerateOne(rng)
			s.Label = nil // labels are large; the storage study reads images only
			out[i] = s
		}
		return out
	default:
		r := datagen.DefaultBraggRegime()
		return r.Generate(rng, n)
	}
}

// StorageSweep measures epoch time vs batch size and I/O time per
// iteration vs worker count for the three backends of Figs. 6–8:
// docstore+Block ("blosc"), docstore+Gob ("pickle"), filestore ("nfs").
func StorageSweep(cfg StorageConfig) (*StorageResult, error) {
	cfg.defaults()
	samples := generateStorageSamples(cfg.Kind, cfg.Samples, cfg.Seed)

	// --- Backends -----------------------------------------------------
	// Remote docstore with both codecs.
	srv := docstore.NewServer(docstore.NewStore(), docstore.ServerConfig{Latency: cfg.ServerLatency})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	// The client pool's cap is hard (workers beyond it queue for a
	// connection), so size it past the widest loader the sweep runs.
	client, err := docstore.Dial(addr, max(cfg.FixedWorkers, slices.Max(cfg.Workers))+2)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	codecs := map[string]codec.Codec{"blosc": codec.Block{}, "pickle": codec.Gob{}}
	docIDs := map[string][]string{}
	for name, c := range codecs {
		var batch []docstore.TxnOp
		for _, s := range samples {
			raw, err := c.Encode(s)
			if err != nil {
				return nil, fmt.Errorf("encoding for %s: %w", name, err)
			}
			batch = append(batch, docstore.TxnOp{Kind: docstore.TxnAdd, F: docstore.Fields{"payload": raw}})
		}
		ids, err := client.ApplyTxn("train-"+name, batch)
		if err != nil {
			return nil, err
		}
		docIDs[name] = ids
	}

	// Local filestore ("NFS").
	fs, err := filestore.Create(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		if _, err := fs.Append(s); err != nil {
			return nil, err
		}
	}

	datasets := []struct {
		name string
		ds   dataloader.Dataset
	}{
		{"blosc", &dataloader.DocDataset{Client: client, Collection: "train-blosc", IDs: docIDs["blosc"], Codec: codec.Block{}}},
		{"pickle", &dataloader.DocDataset{Client: client, Collection: "train-pickle", IDs: docIDs["pickle"], Codec: codec.Gob{}}},
		{"nfs", &dataloader.FileDataset{Store: fs}},
	}

	res := &StorageResult{Kind: cfg.Kind, BatchSizes: cfg.BatchSizes, Workers: cfg.Workers}
	for _, d := range datasets {
		series := StorageSeries{Backend: d.name}
		// (a) Epoch time vs batch size at the fixed worker count: wall
		// time for one epoch where each batch also pays a per-sample
		// compute cost, overlapped with prefetching.
		for _, bs := range cfg.BatchSizes {
			loader, err := dataloader.New(d.ds, dataloader.Config{
				BatchSize: bs, Workers: cfg.FixedWorkers, Prefetch: 4,
			})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for r := range loader.Epoch(0) {
				if r.Err != nil {
					return nil, r.Err
				}
				simulateCompute(r.Batch.X, cfg.ComputePerSample)
			}
			series.EpochTime = append(series.EpochTime, time.Since(start))
		}
		// (b) Mean I/O time per iteration vs worker count at the fixed
		// batch size: fetch-only epochs, averaging each batch's fetch
		// duration.
		for _, w := range cfg.Workers {
			loader, err := dataloader.New(d.ds, dataloader.Config{
				BatchSize: cfg.FixedBatch, Workers: w, Prefetch: 4,
			})
			if err != nil {
				return nil, err
			}
			var total time.Duration
			start := time.Now()
			iters := 0
			for r := range loader.Epoch(1) {
				if r.Err != nil {
					return nil, r.Err
				}
				iters++
			}
			// Wall time per delivered iteration measures effective I/O
			// throughput including worker overlap.
			total = time.Since(start)
			series.IOPerIter = append(series.IOPerIter, total/time.Duration(iters))
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// simulateCompute burns a deterministic amount of CPU proportional to the
// batch's row count, standing in for the forward/backward pass the loader
// overlaps with prefetch.
func simulateCompute(x *tensor.Tensor, perSample time.Duration) {
	deadline := time.Now().Add(time.Duration(x.Dim(0)) * perSample)
	s := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			s += float64(i) * 1.0000001
		}
	}
	_ = s
}
