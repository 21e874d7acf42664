// Package models defines the two benchmark DNNs of the fairDMS evaluation
// (paper §III-A), scaled to run on commodity CPUs:
//
//   - BraggNN: a convolutional regressor that predicts the sub-pixel center
//     of mass of a Bragg diffraction peak from its patch — the fast
//     surrogate for pseudo-Voigt fitting.
//   - CookieNetAE: a convolutional encoder-decoder that recovers the clean
//     energy-angle probability density from a noisy, low-count CookieBox
//     detector image.
//
// Both expose plain nn.Model values so the fairMS zoo can checkpoint and
// fine-tune them, plus helpers mapping dataset labels to network targets.
package models

import (
	"math"
	"math/rand"

	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// BraggNN bundles the network with its patch geometry.
type BraggNN struct {
	Net   *nn.Model
	Patch int
}

// NewBraggNN builds a BraggNN-style model for patch×patch inputs:
// conv → leaky-ReLU → pool → two fully connected stages with dropout
// (the dropout doubles as the MC-dropout source for uncertainty).
func NewBraggNN(rng *rand.Rand, patch int) *BraggNN {
	dims := tensor.ConvDims{InC: 1, InH: patch, InW: patch, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2d(rng, dims, 8)
	pool := poolFor(8, patch)
	flat := 8 * (patch / poolSize(patch)) * (patch / poolSize(patch))
	net := nn.Sequential(
		conv,
		nn.NewLeakyReLU(0.01),
		pool,
		nn.NewLinear(rng, flat, 64),
		nn.NewLeakyReLU(0.01),
		nn.NewDropout(rng, 0.1),
		nn.NewLinear(rng, 64, 32),
		nn.NewLeakyReLU(0.01),
		nn.NewLinear(rng, 32, 2),
		nn.NewSigmoid(), // centers are normalized into (0, 1)
	)
	return &BraggNN{Net: net, Patch: patch}
}

// poolSize picks the largest window ≤ 3 that divides the patch.
func poolSize(patch int) int {
	for _, s := range []int{3, 2} {
		if patch%s == 0 {
			return s
		}
	}
	return 1
}

func poolFor(c, patch int) nn.Layer {
	s := poolSize(patch)
	if s == 1 {
		return nn.NewIdentity()
	}
	return nn.NewMaxPool2d(c, patch, patch, s)
}

// Targets converts pixel-space center labels (cx, cy) to the network's
// normalized (0,1) targets.
func (b *BraggNN) Targets(labels *tensor.Tensor) *tensor.Tensor {
	return tensor.Scale(labels, 1/float64(b.Patch-1))
}

// ErrorsPx returns per-sample Euclidean prediction errors in pixels —
// the metric of Figs. 2, 9, 10. Inference runs in eval mode.
func (b *BraggNN) ErrorsPx(x, labels *tensor.Tensor) []float64 {
	pred := b.Net.Forward(x, false)
	n := pred.Dim(0)
	scale := float64(b.Patch - 1)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		dx := float64(pred.At(i, 0)*scale) - labels.At(i, 0)
		dy := float64(pred.At(i, 1)*scale) - labels.At(i, 1)
		out[i] = math.Hypot(dx, dy)
	}
	return out
}

// MeanErrorPx returns the mean pixel error over a labeled set.
func (b *BraggNN) MeanErrorPx(x, labels *tensor.Tensor) float64 {
	errs := b.ErrorsPx(x, labels)
	s := 0.0
	for _, e := range errs {
		s += e
	}
	return s / float64(len(errs))
}

// CookieNetAE bundles the encoder-decoder with its image geometry.
type CookieNetAE struct {
	Net  *nn.Model
	Size int
}

// NewCookieNetAE builds a CookieNetAE-style model for size×size inputs:
// conv encoder to a dense bottleneck, then a dense decoder that emits the
// per-pixel density (scaled: see Targets).
func NewCookieNetAE(rng *rand.Rand, size int) *CookieNetAE {
	dims := tensor.ConvDims{InC: 1, InH: size, InW: size, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2d(rng, dims, 4)
	pool := nn.NewMaxPool2d(4, size, size, 2)
	flat := 4 * (size / 2) * (size / 2)
	net := nn.Sequential(
		conv,
		nn.NewReLU(),
		pool,
		nn.NewLinear(rng, flat, 128),
		nn.NewReLU(),
		nn.NewDropout(rng, 0.1),
		nn.NewLinear(rng, 128, size*size),
	)
	return &CookieNetAE{Net: net, Size: size}
}

// Targets scales clean density labels (unit total mass, so per-pixel values
// of order 1/size²) by size² so the regression operates on O(1) values.
func (c *CookieNetAE) Targets(labels *tensor.Tensor) *tensor.Tensor {
	return tensor.Scale(labels, float64(c.Size*c.Size))
}

// ScaleInputs maps 8-bit detector counts into [0, 1] for the network.
func ScaleInputs(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Scale(x, 1.0/255.0)
}

// Loss returns the evaluation loss (MSE on scaled densities) over a set.
func (c *CookieNetAE) Loss(x, labels *tensor.Tensor) float64 {
	return nn.Evaluate(c.Net, x, c.Targets(labels), nn.MSE)
}

// DenoiseNet is a TomoGAN-role denoiser for low-dose tomography slices: a
// convolutional residual network that maps a noisy normalized slice to the
// clean image (the third application the paper's storage study draws its
// Tomography dataset from).
type DenoiseNet struct {
	Net  *nn.Model
	Size int
}

// NewDenoiseNet builds a compact conv denoiser for size×size slices.
func NewDenoiseNet(rng *rand.Rand, size int) *DenoiseNet {
	d1 := tensor.ConvDims{InC: 1, InH: size, InW: size, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c1 := nn.NewConv2d(rng, d1, 4)
	d2 := tensor.ConvDims{InC: 4, InH: size, InW: size, KH: 3, KW: 3, Stride: 1, Pad: 1}
	c2 := nn.NewConv2d(rng, d2, 1)
	net := nn.Sequential(
		c1, nn.NewReLU(),
		c2, nn.NewSigmoid(), // clean image is normalized to (0, 1)
	)
	return &DenoiseNet{Net: net, Size: size}
}

// NormalizeInputs maps 16-bit counts into [0, 1].
func (d *DenoiseNet) NormalizeInputs(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Scale(x, 1.0/65535.0)
}

// PSNR returns the mean peak signal-to-noise ratio (dB) of the network's
// denoised output against the clean targets, the standard denoising
// quality metric.
func (d *DenoiseNet) PSNR(x, clean *tensor.Tensor) float64 {
	pred := d.Net.Forward(x, false)
	n := pred.Dim(0)
	total := 0.0
	for i := 0; i < n; i++ {
		mse := 0.0
		pr, cr := pred.Row(i), clean.Row(i)
		for j := range pr {
			diff := pr[j] - cr[j]
			mse += float64(diff * diff)
		}
		mse /= float64(len(pr))
		if mse < 1e-12 {
			mse = 1e-12
		}
		total += float64(10 * math.Log10(1/mse)) // peak value is 1 after normalization
	}
	return total / float64(n)
}
