package models

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fairdms/internal/datagen"
	"fairdms/internal/dataloader"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// fineTuneJob is the trainer's real job shape in update_cycle: 512 labelled
// 15×15 patches of a drifted scan, split 410 train / 102 validation, and the
// weights of a foundation cold-trained on a pre-drift scan to warm-start
// from. Trained weights matter to the timing: their activations change sign
// across a patch, which an untrained network's mostly do not.
type fineTuneJob struct {
	x, y, valX, valY *tensor.Tensor
	foundation       *nn.StateDict
	epochs           int // of the foundation's fit and of each fine-tune
}

func newFineTuneJob(tb testing.TB, epochs int) *fineTuneJob {
	tb.Helper()
	sched := datagen.DefaultBraggDrift(16)
	scan := func(i int, seed int64) (x, y, valX, valY *tensor.Tensor) {
		b, err := dataloader.Collate(sched.RegimeAt(i).Generate(rand.New(rand.NewSource(seed)), 512))
		if err != nil {
			tb.Fatal(err)
		}
		idx := rand.New(rand.NewSource(seed + 1)).Perm(512)
		t := tensor.Scale(b.Y, 1.0/14)
		return nn.Gather(b.X, idx[102:]), nn.Gather(t, idx[102:]), nn.Gather(b.X, idx[:102]), nn.Gather(t, idx[:102])
	}
	j := &fineTuneJob{epochs: epochs}
	x, y, valX, valY := scan(8, 21)
	m := NewBraggNN(rand.New(rand.NewSource(23)), 15)
	nn.Fit(m.Net, nn.NewAdam(m.Net.Params(), 1e-3), x, y, valX, valY, nn.TrainConfig{Epochs: epochs, BatchSize: 16, Seed: 24})
	j.foundation = m.Net.State()
	j.x, j.y, j.valX, j.valY = scan(16, 25)
	return j
}

// run is an in-process replica of one fine-tune's fit: BraggNN on 15×15
// patches from the foundation's weights, j.epochs epochs (the job's 10 in
// the benchmark) of Adam at the fine-tune rate over mini-batches of batch
// rows (the job's 16; 410 = 25×16 + 10, so every epoch ends on a short
// batch). It returns the final weights' bytes.
func (j *fineTuneJob) run(tb testing.TB, batch int) []byte {
	tb.Helper()
	m := NewBraggNN(rand.New(rand.NewSource(27)), 15)
	if err := m.Net.LoadState(j.foundation); err != nil {
		tb.Fatal(err)
	}
	nn.Fit(m.Net, nn.NewAdam(m.Net.Params(), 2e-4), j.x, j.y, j.valX, j.valY, nn.TrainConfig{
		Epochs: j.epochs, BatchSize: batch, Seed: 28,
	})
	raw, err := m.Net.State().Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

func BenchmarkFineTune(b *testing.B) {
	j := newFineTuneJob(b, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.run(b, 16)
	}
}

// TestFineTuneWeightsArePinned holds a 3-epoch fine-tune's final weights
// to bytes recorded from the scalar Go loops, at batches of one block (7),
// two even blocks (16) and uneven ones (33). A kernel that gives other bits
// — a fused multiply-add, another order of sums, a different select — fails
// here even where every layer test passes. The hashes are amd64's: math.Exp
// is assembly there, so a Sigmoid may round differently on another GOARCH.
// They are never re-recorded to make a change pass.
func TestFineTuneWeightsArePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned weights are amd64's")
	}
	j := newFineTuneJob(t, 3)
	for _, c := range []struct {
		batch int
		hash  string
	}{
		{16, "62e8f39976653cf075a91a39d0d57007c878fe3bb202c3ebd5e0e3c92e332f15"},
		{7, "06979584839e94658fb630631fbbd8a90a96a713fd4a378ca975ad0cec1da93f"},
		{33, "a377870597eb23f7ba265eca2bd0d7585d5b8b0068ad6e57fb26a42d85fbf00c"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(j.run(t, c.batch))); got != c.hash {
			t.Errorf("batch %d: final StateDict sha256 %s, pinned %s", c.batch, got, c.hash)
		}
	}
}

// TestFitIsWorkerCountIndependent pins the determinism contract of a fit:
// how a step is cut into blocks is a function of the batch size and the
// model, never of the worker count, so the final weights are the same bytes
// at GOMAXPROCS 1, 2 and 8 and from one run to the next. BraggNN's dropout
// is on. The batch sizes cover one block (1, and 7 with its short batch of
// 4), two even blocks (16, and its short batch of 10 as two of 5) and
// uneven ones (33 as 6+7+6+7+7, its short batch of 14 as two of 7).
func TestFitIsWorkerCountIndependent(t *testing.T) {
	j := newFineTuneJob(t, 2) // two epochs hold the short batches and an eval after a trained epoch; -race runs this ten times
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, batch := range []int{1, 7, 16, 33} {
		var want []byte
		for _, procs := range []int{1, 2, 8, 1} {
			runtime.GOMAXPROCS(procs)
			got := j.run(t, batch)
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch %d: final StateDict at GOMAXPROCS=%d differs from the first run's", batch, procs)
			}
		}
	}
}
