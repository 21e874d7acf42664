// Package dataloader reimplements the PyTorch data-loading pipeline the
// fairDMS paper extends (§III-D): a Dataset abstraction returning one
// sample per index, a Sampler producing index permutations, and a Loader
// that fans batch fetches out across worker goroutines with bounded
// prefetch, hiding storage latency behind compute — exactly the mechanism
// whose batch-size and worker-count sensitivity Figs. 6–8 measure.
//
// Datasets are backed by internal/docstore collections or
// internal/filestore directories (see datasets.go);
// experiments.StorageSweep (cmd/experiments -fig 6,7,8) runs the full
// sweep.
package dataloader

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/tensor"
)

// Dataset returns a data item corresponding to a given index.
type Dataset interface {
	Len() int
	Get(i int) (*codec.Sample, error)
}

// Sampler creates the index order for one epoch.
type Sampler interface {
	Order(epoch int) []int
}

// SequentialSampler yields 0..n-1 in order.
type SequentialSampler struct{ N int }

// Order returns the identity permutation.
func (s SequentialSampler) Order(int) []int {
	out := make([]int, s.N)
	for i := range out {
		out[i] = i
	}
	return out
}

// RandomSampler yields a seeded random permutation per epoch.
type RandomSampler struct {
	N    int
	Seed int64
}

// Order returns a permutation that differs per epoch but is reproducible
// for a given seed.
func (s RandomSampler) Order(epoch int) []int {
	rng := rand.New(rand.NewSource(s.Seed + int64(epoch)*1_000_003))
	out := rng.Perm(s.N)
	return out
}

// Batch is one mini-batch of decoded samples in training-ready form.
type Batch struct {
	X       *tensor.Tensor // (B, features)
	Y       *tensor.Tensor // (B, labelDim); nil when samples carry no label
	Indices []int          // dataset indices of the rows
	Fetch   time.Duration  // wall time spent fetching + decoding this batch
}

// Result delivers a batch or the error that produced it.
type Result struct {
	Batch *Batch
	Err   error
}

// Config tunes a Loader.
type Config struct {
	BatchSize int // required
	// Workers sets both the number of batches fetched concurrently and the
	// number of concurrent sample fetches within a batch — the fairDMS
	// extension of the PyTorch loader ("fetch using multiple clients" to
	// hide per-fetch latency, paper §III-D). Default 1.
	Workers  int
	Prefetch int  // extra batches buffered ahead of the consumer; default 2
	DropLast bool // drop a trailing partial batch
	Sampler  Sampler
}

// Loader iterates a dataset in batches using a worker pool.
type Loader struct {
	ds  Dataset
	cfg Config
}

// New validates the configuration and returns a Loader.
func New(ds Dataset, cfg Config) (*Loader, error) {
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("dataloader: batch size %d < 1", cfg.BatchSize)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Prefetch < 1 {
		cfg.Prefetch = 2
	}
	if cfg.Sampler == nil {
		cfg.Sampler = SequentialSampler{N: ds.Len()}
	}
	return &Loader{ds: ds, cfg: cfg}, nil
}

// Epoch launches the worker pool for one epoch and returns a channel of
// batches delivered in order. The caller must drain the channel (or read
// until it sees an error) so the workers can exit; the channel closes when
// the epoch completes.
func (l *Loader) Epoch(epoch int) <-chan Result {
	order := l.cfg.Sampler.Order(epoch)
	type job struct {
		seq     int
		indices []int
	}
	var jobs []job
	for lo := 0; lo < len(order); lo += l.cfg.BatchSize {
		hi := lo + l.cfg.BatchSize
		if hi > len(order) {
			if l.cfg.DropLast {
				break
			}
			hi = len(order)
		}
		jobs = append(jobs, job{seq: len(jobs), indices: order[lo:hi]})
	}

	jobCh := make(chan job)
	results := make([]chan Result, len(jobs))
	for i := range results {
		results[i] = make(chan Result, 1)
	}

	var wg sync.WaitGroup
	for w := 0; w < l.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				b, err := l.fetchBatch(j.indices)
				results[j.seq] <- Result{Batch: b, Err: err}
			}
		}()
	}
	go func() {
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
		wg.Wait()
	}()

	// Reorder: deliver batch seq 0, 1, 2, ... regardless of completion
	// order, with Prefetch slots of buffering toward the consumer.
	out := make(chan Result, l.cfg.Prefetch)
	go func() {
		defer close(out)
		for i := range results {
			out <- <-results[i]
		}
	}()
	return out
}

// fetchBatch retrieves and decodes one batch, timing the I/O. Sample
// fetches within the batch run on up to cfg.Workers goroutines so that
// per-fetch round-trip latency overlaps (the multi-client extension).
func (l *Loader) fetchBatch(indices []int) (*Batch, error) {
	start := time.Now()
	samples := make([]*codec.Sample, len(indices))
	par := l.cfg.Workers
	if par > len(indices) {
		par = len(indices)
	}
	if par <= 1 {
		for i, idx := range indices {
			s, err := l.ds.Get(idx)
			if err != nil {
				return nil, fmt.Errorf("dataloader: sample %d: %w", idx, err)
			}
			samples[i] = s
		}
	} else {
		errs := make([]error, len(indices))
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					s, err := l.ds.Get(indices[i])
					if err != nil {
						errs[i] = fmt.Errorf("dataloader: sample %d: %w", indices[i], err)
						continue
					}
					samples[i] = s
				}
			}()
		}
		for i := range indices {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	b, err := Collate(samples)
	if err != nil {
		return nil, err
	}
	b.Indices = append([]int(nil), indices...)
	b.Fetch = time.Since(start)
	return b, nil
}

// Collate stacks decoded samples into batch tensors. All samples must share
// an element count; labels must share a length (or all be absent).
func Collate(samples []*codec.Sample) (*Batch, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dataloader: empty batch")
	}
	feat := samples[0].Elems()
	labelDim := len(samples[0].Label)
	x := tensor.New(len(samples), feat)
	var y *tensor.Tensor
	if labelDim > 0 {
		y = tensor.New(len(samples), labelDim)
	}
	for i, s := range samples {
		if s.Elems() != feat {
			return nil, fmt.Errorf("dataloader: sample %d has %d elements, batch has %d", i, s.Elems(), feat)
		}
		if len(s.Label) != labelDim {
			return nil, fmt.Errorf("dataloader: sample %d has label dim %d, batch has %d", i, len(s.Label), labelDim)
		}
		copy(x.Row(i), s.Floats())
		if y != nil {
			copy(y.Row(i), s.Label)
		}
	}
	return &Batch{X: x, Y: y}, nil
}
