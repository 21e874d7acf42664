// Package embed implements the self-supervised representation learners at
// the heart of fairDS (paper §II-A, §II-C): an Embedder turns bulky detector
// images into compact feature vectors such that semantically similar images
// land close together, enabling cluster-based retrieval of similar labeled
// data. Two built-in methods mirror the paper's menu:
//
//   - Autoencoder — reconstruction bottleneck. Sensitive to pixel-wise
//     differences; the paper reports it fails on rotated Bragg peaks (§IV).
//   - BYOL — bootstrap-your-own-latent with an EMA target network; trained
//     to be invariant to physics-inspired augmentations (rotations, flips,
//     noise), which fixed the Bragg indexing failure in the paper.
//
// Users plug custom methods in by implementing Embedder, matching the
// paper's extensible "embedding interface module".
package embed

import (
	"math"
	"math/rand"

	"fairdms/internal/nn"
	"fairdms/internal/tensor"
)

// Embedder maps a batch of flattened images (N, features) to embeddings
// (N, Dim()).
//
// Embed must be safe for concurrent use: a daemon's concurrent requests
// each embed their own batch through one fairds.Service.
// The built-in methods satisfy this because nn eval-mode forwards write no
// layer state; custom implementations that mutate per-call state (e.g.
// Monte-Carlo dropout) must synchronize internally.
//
// Embed reads x only during the call: the result shares no storage with x,
// and nothing keeps x afterwards. Callers rely on it — fairds collates a
// request into a pooled tensor (tensor.Borrow) and releases it once Embed
// has returned, and Scaled does the same with its scaled copy. The result
// is the caller's, as an nn eval-mode forward's is; EmbedRows hands out
// views of it and fairds stores them.
type Embedder interface {
	Embed(x *tensor.Tensor) *tensor.Tensor
	Dim() int
}

// Trainer is an Embedder that learns from unlabeled data.
type Trainer interface {
	Embedder
	// Train runs self-supervised training on x and returns per-epoch losses.
	Train(x *tensor.Tensor, cfg TrainConfig) []float64
}

// TrainConfig tunes self-supervised training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

func (c *TrainConfig) defaults(n int) {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 || c.BatchSize > n {
		c.BatchSize = min(n, 32)
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
}

// Scaled wraps an Embedder with input scaling, so raw detector counts
// (e.g. 8-bit 0–255 images) are brought into the activation range the
// inner model was trained on. Without this, large inputs saturate bounded
// activations and every embedding collapses to the same point.
type Scaled struct {
	E      Embedder
	Factor float64
}

// Dim returns the inner embedder's dimensionality.
func (s Scaled) Dim() int { return s.E.Dim() }

// Embed writes Factor·x into a pooled tensor, delegates, and releases the
// scaled copy once the inner Embed has returned.
func (s Scaled) Embed(x *tensor.Tensor) *tensor.Tensor {
	scaled := tensor.Borrow(x.Dim(0), x.Dim(1))
	sd := scaled.Data()
	for i, v := range x.Data() {
		sd[i] = s.Factor * v
	}
	z := s.E.Embed(scaled)
	tensor.Release(scaled)
	return z
}

// EmbedRows returns the embeddings of x as row slices, the form the
// clustering package consumes: views of the embedder's caller-owned result,
// each capped at its own row, so appending to one cannot reach the next.
func EmbedRows(e Embedder, x *tensor.Tensor) [][]float64 {
	z := e.Embed(x)
	out := make([][]float64, z.Dim(0))
	for i := range out {
		row := z.Row(i)
		out[i] = row[:len(row):len(row)]
	}
	return out
}

// ---------------------------------------------------------------------------
// Augmentations

// Augment produces a randomized view of a flattened image, in place on the
// provided copy. Implementations must treat src as read-only.
type Augment func(rng *rand.Rand, src []float64, dst []float64)

// ImageAugmenter applies the physics-inspired augmentation menu of the
// paper's BYOL fix: square-image rotations by multiples of 90°, mirror
// flips, additive Gaussian noise, and intensity scaling. Diffraction peaks
// rotated or mirrored are physically identical, so embeddings should be
// invariant to these.
type ImageAugmenter struct {
	H, W       int
	Noise      float64 // additive Gaussian noise stddev
	ScaleRange float64 // intensity scale drawn from 1±ScaleRange
}

// View implements Augment.
func (a ImageAugmenter) View(rng *rand.Rand, src, dst []float64) {
	copy(dst, src)
	if a.H == a.W {
		switch rng.Intn(4) {
		case 1:
			rotate90(dst, a.H)
		case 2:
			rotate180(dst, a.H, a.W)
		case 3:
			rotate90(dst, a.H)
			rotate180(dst, a.H, a.H)
		}
	}
	if rng.Intn(2) == 1 {
		flipH(dst, a.H, a.W)
	}
	scale := 1.0
	if a.ScaleRange > 0 {
		scale = 1 + float64((float64(rng.Float64())*2-1)*a.ScaleRange) // the inner float64 keeps rand's product out of the doubling
	}
	for i := range dst {
		v := float64(dst[i] * scale)
		if a.Noise > 0 {
			v += float64(rng.NormFloat64() * a.Noise)
		}
		dst[i] = v
	}
}

// rotate90 rotates a square n×n image counter-clockwise in place.
func rotate90(img []float64, n int) {
	tmp := make([]float64, len(img))
	copy(tmp, img)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			img[(n-1-x)*n+y] = tmp[y*n+x]
		}
	}
}

func rotate180(img []float64, h, w int) {
	for i, j := 0, len(img)-1; i < j; i, j = i+1, j-1 {
		img[i], img[j] = img[j], img[i]
	}
}

func flipH(img []float64, h, w int) {
	for y := 0; y < h; y++ {
		row := img[y*w : (y+1)*w]
		for i, j := 0, w-1; i < j; i, j = i+1, j-1 {
			row[i], row[j] = row[j], row[i]
		}
	}
}

// makeViews builds one augmented-view tensor for each row of x.
func makeViews(rng *rand.Rand, x *tensor.Tensor, aug Augment) *tensor.Tensor {
	out := tensor.New(x.Dim(0), x.Dim(1))
	for i := 0; i < x.Dim(0); i++ {
		aug(rng, x.Row(i), out.Row(i))
	}
	return out
}

// ---------------------------------------------------------------------------
// Autoencoder

// Autoencoder learns embeddings through a reconstruction bottleneck.
type Autoencoder struct {
	enc, dec *nn.Model
	dim      int
}

// NewAutoencoder builds a dense autoencoder in → hidden → dim → hidden → in.
func NewAutoencoder(rng *rand.Rand, in, hidden, dim int) *Autoencoder {
	return &Autoencoder{
		enc: nn.Sequential(
			nn.NewLinear(rng, in, hidden), nn.NewReLU(),
			nn.NewLinear(rng, hidden, dim), nn.NewTanh(),
		),
		dec: nn.Sequential(
			nn.NewLinear(rng, dim, hidden), nn.NewReLU(),
			nn.NewLinear(rng, hidden, in),
		),
		dim: dim,
	}
}

// Dim returns the embedding dimensionality.
func (a *Autoencoder) Dim() int { return a.dim }

// Embed returns encoder outputs in eval mode.
func (a *Autoencoder) Embed(x *tensor.Tensor) *tensor.Tensor {
	return a.enc.Forward(x, false)
}

// Train minimizes reconstruction MSE and returns per-epoch losses.
func (a *Autoencoder) Train(x *tensor.Tensor, cfg TrainConfig) []float64 {
	cfg.defaults(x.Dim(0))
	params := append(a.enc.Params(), a.dec.Params()...)
	opt := nn.NewAdam(params, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Dim(0)
	perm := rng.Perm(n)
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		total, batches := 0.0, 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, n)
			bx := nn.Gather(x, perm[lo:hi])
			opt.ZeroGrad()
			z := a.enc.Forward(bx, true)
			recon := a.dec.Forward(z, true)
			loss, grad := nn.MSE(recon, bx)
			gz := a.dec.Backward(grad)
			a.enc.Backward(gz)
			opt.Step()
			total += loss
			batches++
		}
		losses = append(losses, total/float64(batches))
	}
	return losses
}

// ---------------------------------------------------------------------------
// BYOL

// BYOL learns embeddings without negatives: an online network predicts the
// EMA target network's representation of a differently augmented view.
type BYOL struct {
	online    *nn.Model // backbone+projector
	predictor *nn.Model
	target    *nn.Model // EMA copy of online
	aug       Augment
	dim       int
	tau       float64

	// backbone is the leading layers of online (the same layer values,
	// not copies) whose output Embed returns.
	backbone *nn.Model
}

// NewBYOL builds a BYOL embedder. tau is the EMA decay (default 0.99).
func NewBYOL(rng *rand.Rand, in, hidden, dim int, aug Augment, tau float64) *BYOL {
	if tau <= 0 || tau >= 1 {
		tau = 0.99
	}
	// The backbone output is unbounded (no Tanh): bounding it compresses
	// representation variance and worsens BYOL's partial-collapse tendency
	// on small datasets.
	mk := func() *nn.Model {
		return nn.Sequential(
			nn.NewLinear(rng, in, hidden), nn.NewReLU(),
			nn.NewLinear(rng, hidden, dim),
			nn.NewLinear(rng, dim, dim), // projector
		)
	}
	online := mk()
	target := mk()
	// Target starts as an exact copy of online.
	if err := nn.CopyWeights(target, online); err != nil {
		panic("embed: byol target clone: " + err.Error())
	}
	pred := nn.Sequential(
		nn.NewLinear(rng, dim, dim), nn.NewReLU(),
		nn.NewLinear(rng, dim, dim),
	)
	return &BYOL{online: online, predictor: pred, target: target, aug: aug, dim: dim, tau: tau,
		backbone: nn.Sequential(online.Layers()[:3]...)}
}

// Dim returns the embedding dimensionality.
func (b *BYOL) Dim() int { return b.dim }

// Embed returns the online backbone output (pre-projector).
func (b *BYOL) Embed(x *tensor.Tensor) *tensor.Tensor {
	return b.backbone.Forward(x, false)
}

// Train runs BYOL: normalized-MSE between the online prediction of one view
// and the target projection of the other, symmetrized, with EMA target
// updates. Returns per-epoch losses.
func (b *BYOL) Train(x *tensor.Tensor, cfg TrainConfig) []float64 {
	cfg.defaults(x.Dim(0))
	params := append(b.online.Params(), b.predictor.Params()...)
	opt := nn.NewAdam(params, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Dim(0)
	perm := rng.Perm(n)
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		total, batches := 0.0, 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, n)
			bx := nn.Gather(x, perm[lo:hi])
			bsz := bx.Dim(0)
			va := makeViews(rng, bx, b.aug)
			vb := makeViews(rng, bx, b.aug)

			// Symmetrized pass: online sees [A;B], target sees [B;A];
			// online(view) must predict target(other view).
			cat := tensor.New(2*bsz, bx.Dim(1))
			tcat := tensor.New(2*bsz, bx.Dim(1))
			for i := 0; i < bsz; i++ {
				copy(cat.Row(i), va.Row(i))
				copy(cat.Row(bsz+i), vb.Row(i))
				copy(tcat.Row(i), vb.Row(i))
				copy(tcat.Row(bsz+i), va.Row(i))
			}
			opt.ZeroGrad()
			zo := b.online.Forward(cat, true)
			p := b.predictor.Forward(zo, true)
			zt := b.target.Forward(tcat, false) // no grad through target

			loss, gp := byolLoss(p, zt)
			gz := b.predictor.Backward(gp)
			b.online.Backward(gz)
			opt.Step()
			if err := nn.EMAUpdate(b.target, b.online, b.tau); err != nil {
				panic("embed: byol ema: " + err.Error())
			}
			total += loss
			batches++
		}
		losses = append(losses, total/float64(batches))
	}
	return losses
}

// byolLoss computes 2 − 2·cos(p, z) per row (the BYOL regression loss on
// L2-normalized vectors) and its gradient with respect to p.
func byolLoss(p, z *tensor.Tensor) (float64, *tensor.Tensor) {
	n, d := p.Dim(0), p.Dim(1)
	grad := tensor.New(n, d)
	loss := 0.0
	for i := 0; i < n; i++ {
		pr, zr := p.Row(i), z.Row(i)
		pn, zn := norm(pr), norm(zr)
		dot := 0.0
		for j := 0; j < d; j++ {
			dot += float64(pr[j] * zr[j])
		}
		cos := dot / (pn * zn)
		loss += 2 - 2*cos
		g := grad.Row(i)
		// d(−2·cos)/dp = −2·(z/(|p||z|) − cos·p/|p|²)
		for j := 0; j < d; j++ {
			g[j] = -2 * (zr[j]/(pn*zn) - cos*pr[j]/(pn*pn)) / float64(n)
		}
	}
	return loss / float64(n), grad
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x * x)
	}
	return math.Sqrt(s) + 1e-12
}
