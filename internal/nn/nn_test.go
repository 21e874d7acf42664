package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// numericGrad estimates dLoss/dParam by central differences for one scalar
// parameter element, where loss() runs the full forward + loss pipeline.
func numericGrad(loss func() float64, cell *float64) float64 {
	const h = 1e-6
	orig := *cell
	*cell = orig + h
	up := loss()
	*cell = orig - h
	down := loss()
	*cell = orig
	return (up - down) / (2 * h)
}

// checkModelGradients verifies analytic parameter gradients of model against
// numeric ones on a fixed (x, y) batch with MSE loss.
func checkModelGradients(t *testing.T, model *Model, x, y *tensor.Tensor, tol float64) {
	t.Helper()
	lossFn := func() float64 {
		pred := model.Forward(x, true)
		l, _ := MSE(pred, y)
		return l
	}
	model.ZeroGrad()
	pred := model.Forward(x, true)
	_, grad := MSE(pred, y)
	model.Backward(grad)

	for pi, p := range model.Params() {
		vd := p.Value.Data()
		gd := p.Grad.Data()
		// Check a handful of elements per parameter to keep the test fast.
		step := len(vd)/5 + 1
		for i := 0; i < len(vd); i += step {
			want := numericGrad(lossFn, &vd[i])
			if math.Abs(want-gd[i]) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %d (%s) grad[%d] = %g, numeric %g", pi, p.Name, i, gd[i], want)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := Sequential(NewLinear(rng, 4, 3))
	x := tensor.Randn(rng, 1, 5, 4)
	y := tensor.Randn(rng, 1, 5, 3)
	checkModelGradients(t, model, x, y, 1e-5)
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := Sequential(
		NewLinear(rng, 6, 8), NewTanh(),
		NewLinear(rng, 8, 5), NewSigmoid(),
		NewLinear(rng, 5, 2),
	)
	x := tensor.Randn(rng, 1, 4, 6)
	y := tensor.Randn(rng, 1, 4, 2)
	checkModelGradients(t, model, x, y, 1e-4)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := Sequential(NewLinear(rng, 5, 5), NewLeakyReLU(0.1), NewLinear(rng, 5, 1))
	x := tensor.Randn(rng, 1, 6, 5)
	y := tensor.Randn(rng, 1, 6, 1)
	checkModelGradients(t, model, x, y, 1e-4)
}

func TestConv2dGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := tensor.ConvDims{InC: 2, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2d(rng, dims, 3)
	model := Sequential(conv, NewReLU(), NewLinear(rng, conv.OutFeatures(), 2))
	x := tensor.Randn(rng, 1, 3, dims.InC*dims.InH*dims.InW)
	y := tensor.Randn(rng, 1, 3, 2)
	checkModelGradients(t, model, x, y, 1e-4)
}

func TestConv2dInputGradient(t *testing.T) {
	// Verify dX numerically as well, since Col2Im handles it.
	rng := rand.New(rand.NewSource(5))
	dims := tensor.ConvDims{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	conv := NewConv2d(rng, dims, 2)
	x := tensor.Randn(rng, 1, 2, 16)
	y := tensor.Randn(rng, 1, 2, conv.OutFeatures())

	lossFn := func() float64 {
		pred := conv.Forward(x, true)
		l, _ := MSE(pred, y)
		return l
	}
	conv.w.ZeroGrad()
	conv.b.ZeroGrad()
	pred := conv.Forward(x, true)
	_, grad := MSE(pred, y)
	dx := conv.Backward(grad)

	xd := x.Data()
	gd := dx.Data()
	for i := 0; i < len(xd); i += 7 {
		want := numericGrad(lossFn, &xd[i])
		if math.Abs(want-gd[i]) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("dX[%d] = %g, numeric %g", i, gd[i], want)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pool := NewMaxPool2d(1, 4, 4, 2)
	model := Sequential(NewLinear(rng, 16, 16), pool, NewLinear(rng, 4, 2))
	x := tensor.Randn(rng, 1, 3, 16)
	y := tensor.Randn(rng, 1, 3, 2)
	checkModelGradients(t, model, x, y, 1e-4)
}

func TestMaxPoolForwardValues(t *testing.T) {
	pool := NewMaxPool2d(1, 2, 2, 2)
	x := tensor.FromSlice([]float64{1, 5, 3, 2}, 1, 4)
	out := pool.Forward(x, false)
	if out.Len() != 1 || out.At(0, 0) != 5 {
		t.Fatalf("pooled = %v, want [5]", out.Data())
	}
}

func TestMaxPoolBadWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dividing window")
		}
	}()
	NewMaxPool2d(1, 5, 5, 2)
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDropout(rng, 0.5)
	x := tensor.Full(1, 1, 1000)

	// Eval mode: identity.
	out := d.Forward(x, false)
	if !tensor.AllClose(out, x, 0) {
		t.Fatal("eval-mode dropout must be identity")
	}

	// Train mode: roughly half zeroed, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout output %g", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("zeroed %d of 1000 at p=0.5", zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("dropout outputs must be 0 or scaled input")
	}
}

func TestDropoutMCModeActiveAtInference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	model := Sequential(NewLinear(rng, 4, 16), NewReLU(), NewDropout(rng, 0.5), NewLinear(rng, 16, 1))
	x := tensor.Randn(rng, 1, 1, 4)

	// Without MC, repeated inference is deterministic.
	a := model.Forward(x, false).At(0, 0)
	b := model.Forward(x, false).At(0, 0)
	if a != b {
		t.Fatal("inference must be deterministic without MC mode")
	}

	if n := SetMC(model, true); n != 1 {
		t.Fatalf("SetMC touched %d layers, want 1", n)
	}
	seen := map[float64]bool{}
	for i := 0; i < 8; i++ {
		seen[model.Forward(x, false).At(0, 0)] = true
	}
	if len(seen) < 2 {
		t.Fatal("MC dropout must produce varying predictions")
	}
}

func TestDropoutBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p=1")
		}
	}()
	NewDropout(rand.New(rand.NewSource(0)), 1.0)
}

func TestMSEKnownValue(t *testing.T) {
	pred := tensor.FromSlice([]float64{1, 2}, 1, 2)
	target := tensor.FromSlice([]float64{0, 0}, 1, 2)
	loss, grad := MSE(pred, target)
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("MSE = %g, want 2.5", loss)
	}
	if grad.At(0, 0) != 1 || grad.At(0, 1) != 2 {
		t.Fatalf("grad = %v", grad.Data())
	}
}

func TestAdamReducesLossFasterThanNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	model := Sequential(NewLinear(rng, 3, 16), NewReLU(), NewLinear(rng, 16, 1))
	opt := NewAdam(model.Params(), 1e-2)
	x := tensor.Randn(rng, 1, 128, 3)
	y := tensor.New(128, 1)
	for i := 0; i < 128; i++ {
		y.Set(x.At(i, 0)*x.At(i, 1)+x.At(i, 2), i, 0)
	}
	first := Evaluate(model, x, y, MSE)
	Fit(model, opt, x, y, x, y, TrainConfig{Epochs: 80, BatchSize: 32, Seed: 2})
	last := Evaluate(model, x, y, MSE)
	if last >= first/5 {
		t.Fatalf("Adam did not learn: %g -> %g", first, last)
	}
}

func TestFitTargetLossStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	model := Sequential(NewLinear(rng, 1, 1))
	opt := NewAdam(model.Params(), 0.1)
	x := tensor.Randn(rng, 1, 32, 1)
	y := x.Clone()
	res := Fit(model, opt, x, y, x, y, TrainConfig{Epochs: 500, BatchSize: 8, TargetLoss: 1e-3, Seed: 3})
	if !res.Converged {
		t.Fatal("expected convergence on identity regression")
	}
	if res.Epochs >= 500 {
		t.Fatal("expected early stop before 500 epochs")
	}
	if at := res.ConvergedAt(1e-3); at != res.Epochs {
		t.Fatalf("ConvergedAt = %d, want %d", at, res.Epochs)
	}
}

func TestFitPatienceStops(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	model := Sequential(NewLinear(rng, 2, 1))
	// Zero learning rate: no improvement, so patience must fire.
	opt := NewAdam(model.Params(), 0)
	x := tensor.Randn(rng, 1, 16, 2)
	y := tensor.Randn(rng, 1, 16, 1)
	res := Fit(model, opt, x, y, x, y, TrainConfig{Epochs: 100, BatchSize: 4, Patience: 3, Seed: 4})
	if res.Epochs > 10 {
		t.Fatalf("patience did not stop training (ran %d epochs)", res.Epochs)
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Sequential(NewLinear(rng, 3, 4), NewReLU(), NewLinear(rng, 4, 2))
	b := Sequential(NewLinear(rng, 3, 4), NewReLU(), NewLinear(rng, 4, 2))

	var buf bytes.Buffer
	if err := a.State().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sd, err := DecodeStateDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.LoadState(sd); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 5, 3)
	if !tensor.AllClose(a.Forward(x, false), b.Forward(x, false), 1e-12) {
		t.Fatal("models disagree after state-dict round trip")
	}
}

func TestLoadStateShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := Sequential(NewLinear(rng, 3, 4))
	b := Sequential(NewLinear(rng, 3, 5))
	if err := b.LoadState(a.State()); err == nil {
		t.Fatal("expected error loading mismatched state dict")
	}
	c := Sequential(NewLinear(rng, 3, 4), NewLinear(rng, 4, 4))
	if err := c.LoadState(a.State()); err == nil {
		t.Fatal("expected error for differing param counts")
	}
}

func TestStateDictBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := Sequential(NewLinear(rng, 2, 2))
	raw, err := a.State().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	sd, err := StateDictFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(sd.Values) != 2 {
		t.Fatalf("decoded %d params, want 2", len(sd.Values))
	}
}

func TestEMAUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	online := Sequential(NewLinear(rng, 2, 2))
	target := Sequential(NewLinear(rng, 2, 2))
	if err := CopyWeights(target, online); err != nil {
		t.Fatal(err)
	}
	// Nudge online weights, then EMA with tau=0.5 must land halfway.
	before := target.Params()[0].Value.At(0, 0)
	online.Params()[0].Value.Set(before+2, 0, 0)
	if err := EMAUpdate(target, online, 0.5); err != nil {
		t.Fatal(err)
	}
	got := target.Params()[0].Value.At(0, 0)
	if math.Abs(got-(before+1)) > 1e-12 {
		t.Fatalf("EMA value = %g, want %g", got, before+1)
	}
}

func TestGatherRows(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	b := Gather(x, []int{2, 0})
	if b.At(0, 0) != 5 || b.At(1, 1) != 2 {
		t.Fatalf("Gather = %v", b.Data())
	}
}
