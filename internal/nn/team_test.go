package nn

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"fairdms/internal/tensor"
)

// teamFixture is a BraggNN-shaped model, which cuts a batch of 15 or 16
// into two blocks, and 40 training and 30 validation rows for it.
func teamFixture(seed int64) (model *Model, x, y, valX, valY *tensor.Tensor) {
	rng := rand.New(rand.NewSource(seed))
	x = tensor.Randn(rng, 1, 40, 225)
	y = tensor.RandUniform(rng, 0, 1, 40, 2)
	valX = tensor.Randn(rng, 1, 30, 225)
	valY = tensor.RandUniform(rng, 0, 1, 30, 2)
	return braggLikeNet(rng), x, y, valX, valY
}

// helpersRunning counts the goroutines inside a team's helper loop.
func helpersRunning() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "nn.(*team).help(")
}

// noHelpersLeft fails the test unless every helper goroutine is gone. Fit
// waits for its helpers to return; a returned goroutine leaves the runtime's
// list a moment later, so this polls briefly.
func noHelpersLeft(t *testing.T, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for helpersRunning() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d helper goroutines outlive Fit", what, helpersRunning())
		}
		time.Sleep(time.Millisecond)
	}
	if n := helpersInUse.Load(); n != 0 {
		t.Fatalf("%s: the budget still counts %d helpers in use", what, n)
	}
}

// errReplica is what panicOnReplica raises.
type errReplica struct{}

// panicOnReplica is an MSE that panics on the rows of a replica: a batch of
// 15 is cut into blocks of 7 and 8, and block 0, 7 rows, trains the model.
// That block takes a moment first, so that at two or more members the
// replica's block usually lands on a helper.
func panicOnReplica(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if pred.Dim(0) == 8 {
		panic(errReplica{})
	}
	time.Sleep(2 * time.Millisecond)
	return MSE(pred, target)
}

// fitRecovering runs Fit and returns what it panicked with, or nil.
func fitRecovering(model *Model, x, y, valX, valY *tensor.Tensor, cfg TrainConfig) (r any) {
	defer func() { r = recover() }()
	Fit(model, NewAdam(model.Params(), 1e-3), x, y, valX, valY, cfg)
	return nil
}

// TestFitPanicReachesTheCaller makes a replica's loss panic: Fit must raise
// that panic on its caller's goroutine, where a deferred recover sees it,
// rather than on a goroutine of its own, where it would end the process.
// Run at GOMAXPROCS 2 and up, ten fits in a row, so the replica's block
// runs on a helper as well as on the caller.
func TestFitPanicReachesTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	for i := range 10 {
		model, x, y, valX, valY := teamFixture(int64(60 + i))
		r := fitRecovering(model, x, y, valX, valY, TrainConfig{Epochs: 2, BatchSize: 15, Seed: 61, Loss: panicOnReplica})
		if _, ok := r.(errReplica); !ok {
			t.Fatalf("fit %d: Fit raised %v on the caller, want the loss's errReplica", i, r)
		}
		noHelpersLeft(t, "after the panic")
	}
}

// TestFitLeavesNoHelpers holds Fit to ending its team however it ends: a
// full run, Stop mid-epoch, OnEpoch asking to stop, and a panic.
func TestFitLeavesNoHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	for _, tc := range []struct {
		name string
		cfg  func() TrainConfig
	}{
		{"full run", func() TrainConfig { return TrainConfig{Epochs: 3, BatchSize: 16, Seed: 62} }},
		{"Stop mid-epoch", func() TrainConfig {
			calls := 0
			return TrainConfig{Epochs: 3, BatchSize: 16, Seed: 62, Stop: func() bool { calls++; return calls > 4 }}
		}},
		{"OnEpoch stops", func() TrainConfig {
			return TrainConfig{Epochs: 3, BatchSize: 16, Seed: 62, OnEpoch: func(int, float64, float64) bool { return false }}
		}},
		{"panic", func() TrainConfig { return TrainConfig{Epochs: 3, BatchSize: 15, Seed: 62, Loss: panicOnReplica} }},
	} {
		model, x, y, valX, valY := teamFixture(63)
		before := runtime.NumGoroutine()
		r := fitRecovering(model, x, y, valX, valY, tc.cfg())
		if _, ok := r.(errReplica); r != nil && !ok {
			t.Fatalf("%s: Fit panicked with %v", tc.name, r)
		}
		noHelpersLeft(t, tc.name)
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines before Fit, %d after", tc.name, before, after)
		}
	}
}

// TestFitValidationMatchesEvaluate holds the validation pass, which the team
// cuts into chunks of rows, to the whole-batch eval-mode pass: the last
// epoch's validation loss is Evaluate's on the trained model, to the bit.
// A team of one keeps the pass whole, so this runs at GOMAXPROCS 2 and up.
func TestFitValidationMatchesEvaluate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	rng := rand.New(rand.NewSource(64))
	model := braggLikeNet(rng)
	x := tensor.Randn(rng, 1, 48, 225)
	y := tensor.RandUniform(rng, 0, 1, 48, 2)
	valX := tensor.Randn(rng, 1, 101, 225) // more rows than one chunk holds, and an uneven cut
	valY := tensor.RandUniform(rng, 0, 1, 101, 2)
	if rows := evalRows(model); rows >= 101 {
		t.Fatalf("evalRows = %d: the pass would not be cut", rows)
	}
	res := Fit(model, NewAdam(model.Params(), 1e-3), x, y, valX, valY, TrainConfig{Epochs: 2, BatchSize: 16, Seed: 65})
	if got, want := res.ValLoss[len(res.ValLoss)-1], Evaluate(model, valX, valY, MSE); got != want {
		t.Fatalf("last validation loss %.17g, Evaluate %.17g", got, want)
	}
}
