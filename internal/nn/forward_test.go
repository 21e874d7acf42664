package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/tensor"
)

// braggNet is models.NewBraggNN's network (which this package cannot
// import): a patch divisible by 3 pools, any other passes the pool slot
// through an Identity.
func braggNet(rng *rand.Rand, patch int) *Model {
	dims := tensor.ConvDims{InC: 1, InH: patch, InW: patch, KH: 3, KW: 3, Stride: 1, Pad: 1}
	var pool Layer = NewIdentity()
	side := patch
	if patch%3 == 0 {
		pool, side = NewMaxPool2d(8, patch, patch, 3), patch/3
	}
	return Sequential(
		NewConv2d(rng, dims, 8), NewLeakyReLU(0.01), pool,
		NewLinear(rng, 8*side*side, 64), NewLeakyReLU(0.01), NewDropout(rng, 0.1),
		NewLinear(rng, 64, 32), NewLeakyReLU(0.01),
		NewLinear(rng, 32, 2), NewSigmoid(),
	)
}

// poisonPool fills every buffer the tensor scratch pool holds with NaN, up
// to its capacity, and adds NaN-filled buffers larger than any slot these
// tests use, so an element a pooled forward failed to write, or a result
// that went back to the pool, reads NaN.
func poisonPool() {
	held := make([]*tensor.Tensor, 32)
	for i := range held {
		if i < len(held)/2 {
			held[i] = tensor.Borrow(0, 0) // whatever the pool has, as it is
		} else {
			held[i] = tensor.New(64, 1024)
		}
		d := held[i].Data()
		d = d[:cap(d)]
		for j := range d {
			d[j] = math.NaN()
		}
	}
	for _, b := range held {
		tensor.Release(b)
	}
}

// layerChain is the eval-mode forward as it was before the pooled pass:
// every layer's own Forward, each allocating its caller-owned result.
func layerChain(m *Model, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range m.Layers() {
		x = l.Forward(x, false)
	}
	return x
}

// TestModelForwardEvalMatchesLayerChain: the eval-mode Model.Forward, with
// its intermediates in pooled slots, gives the per-layer chain's bits
// (NaN as NaN) on the embedder's MLP, BraggNN with and without its pool,
// and models that end by passing their input through — over inputs with
// signed zeros, infinities, NaN, subnormals and ±1e308, with the pool
// poisoned with NaN before every pass and again before the result is read.
func TestModelForwardEvalMatchesLayerChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	models := map[string]struct {
		m  *Model
		in int
	}{
		"embedder-mlp": {Sequential(NewLinear(rng, 121, 64), NewReLU(), NewLinear(rng, 64, 8), NewTanh()), 121},
		"braggnn-9":    {braggNet(rng, 9), 81},
		"braggnn-11":   {braggNet(rng, 11), 121},
		"identity-end": {Sequential(NewLinear(rng, 12, 16), NewReLU(), NewIdentity()), 12},
		"dropout-end":  {Sequential(NewLinear(rng, 12, 16), NewLeakyReLU(0.2), NewDropout(rng, 0.5)), 12},
	}
	for name, tc := range models {
		for _, rows := range []int{1, 7, 64} {
			for _, p := range []float64{0, 0.02, 0.3} {
				t.Run(fmt.Sprintf("%s/rows=%d/edge=%g", name, rows, p), func(t *testing.T) {
					x := tensor.FromSlice(edgeSlice(rng, rows*tc.in, p), rows, tc.in)
					keep := x.Clone()
					want := layerChain(tc.m, x)
					poisonPool()
					got := tc.m.Forward(x, false)
					poisonPool()
					if !got.SameShape(want) {
						t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
					}
					if err := sameBits(got.Data(), want.Data()); err != nil {
						t.Fatal(err)
					}
					if err := sameBits(x.Data(), keep.Data()); err != nil {
						t.Fatalf("the input changed: %v", err)
					}
				})
			}
		}
	}
}

// TestModelForwardPassThroughModel: a model whose every layer passes its
// input through returns the input itself, as the per-layer chain does —
// there is no slot to copy out of.
func TestModelForwardPassThroughModel(t *testing.T) {
	m := Sequential(NewIdentity(), NewDropout(rand.New(rand.NewSource(1)), 0.5))
	x := tensor.Full(3, 2, 4)
	if got := m.Forward(x, false); got != x {
		t.Fatal("a pass-through model returned something other than its input")
	}
}

// TestModelForwardEvalConcurrent: eval-mode forwards on one shared BraggNN
// from many goroutines, mixing batch sizes, each give the serial answer.
// Run under -race.
func TestModelForwardEvalConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := braggNet(rng, 9)
	var xs, wants []*tensor.Tensor
	for _, rows := range []int{1, 7, 64} {
		x := tensor.Randn(rng, 1, rows, 81)
		xs, wants = append(xs, x), append(wants, layerChain(m, x))
	}
	errs := make(chan error, 8)
	for w := range 8 {
		go func() {
			var err error
			for r := range 12 {
				i := (w + r) % len(xs)
				if err = sameBits(m.Forward(xs[i], false).Data(), wants[i].Data()); err != nil {
					break
				}
			}
			errs <- err
		}()
	}
	for range 8 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
