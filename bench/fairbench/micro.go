package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"fairdms/internal/fairms"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
	"fairdms/internal/wal"
)

// microbench times the concrete layers no serving seam isolates, by direct
// calls at the workload's own sizes. Each figure is the median of many
// short repetitions, so a scheduling hiccup moves it little.
func microbench(rc *runCtx) {
	res := rc.res
	rng := rand.New(rand.NewSource(rc.seed))
	patch := rc.spec.patch

	// fairms: one Zoo.Rank at the workload's zoo size.
	zoo := fairms.NewZoo()
	state := zooState()
	for i := 0; i < rc.spec.zoo; i++ {
		_ = zoo.Add(modelID(i), state, randomPDF(rng), nil) // fresh zoo, distinct IDs: cannot fail
	}
	if zoo.Len() > 0 {
		q := randomPDF(rng)
		res.set("fairms.rank_us", 1e6*medianSeconds(256, func() { _, _ = zoo.Rank(q) }), 256)
	}

	// nn: one forward+backward+step of BraggNN on a 32-sample minibatch.
	model := models.NewBraggNN(rng, patch).Net
	opt := nn.NewAdam(model.Params(), 1e-3)
	x := tensor.RandUniform(rng, 0, 1, 32, patch*patch)
	y := tensor.RandUniform(rng, 0, 1, 32, 2)
	res.set("nn.braggnn_step_ms", 1e3*medianSeconds(48, func() {
		opt.ZeroGrad()
		_, grad := nn.MSE(model.Forward(x, true), y)
		model.Backward(grad)
		opt.Step()
	}), 48)

	// tensor: MatMul at the embedder's first-layer shape, a 64-row batch of
	// patches against the 64 hidden units.
	a := tensor.RandUniform(rng, 0, 1, 64, patch*patch)
	b := tensor.RandUniform(rng, 0, 1, patch*patch, dmsdEmbedHidden)
	flops := 2 * 64 * float64(patch*patch) * dmsdEmbedHidden
	res.set("tensor.matmul_gflops", flops/medianSeconds(512, func() { _ = tensor.MatMul(a, b) })/1e9, 512)

	// wal: append without fsync, and the fsync itself, at the mean record
	// size the end-to-end pass wrote. Only a WAL workload has one.
	if rc.walRecord > 0 {
		log, _, err := wal.Open(filepath.Join(rc.l.tmp, "wal-micro"), wal.Options{Policy: wal.SyncOff})
		if err != nil {
			return // scratch directory unusable: the metrics stay absent
		}
		defer log.Abort()
		payload := make([]byte, rc.walRecord)
		rng.Read(payload)
		var appendS, syncS []float64
		for i := 0; i < 64; i++ {
			t0 := time.Now()
			_, err := log.Append(payload)
			t1 := time.Now()
			if err != nil || log.Sync() != nil {
				return
			}
			appendS = append(appendS, t1.Sub(t0).Seconds())
			syncS = append(syncS, time.Since(t1).Seconds())
		}
		res.set("wal.append_us", 1e6*median(appendS), len(appendS))
		res.set("wal.sync_ms", 1e3*median(syncS), len(syncS))
	}
}

// medianSeconds runs fn n times and returns the median duration.
func medianSeconds(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = time.Since(t0).Seconds()
	}
	return median(xs)
}
