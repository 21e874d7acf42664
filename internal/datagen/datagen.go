// Package datagen synthesizes the three detector datasets the fairDMS paper
// evaluates with (§III-B), substituting for proprietary APS/LCLS beamline
// data:
//
//   - BraggPeaks: 15×15 float32 patches containing one 2-D pseudo-Voigt
//     diffraction peak each, labeled with the true sub-pixel center. A
//     "regime" fixes the peak-shape distribution; regimes drift across
//     scans, modeling the sample deformation that degrades BraggNN.
//   - CookieBox: square 8-bit images whose rows are per-channel electron
//     energy histograms with Poisson counting noise; the label is the clean
//     energy-angle probability density CookieNetAE must recover.
//   - Tomography: 16-bit phantom slices (nested ellipses) with dose-
//     dependent Poisson noise, used by the storage study.
//
// All generators are deterministic given their *rand.Rand. Generated
// samples are codec.Samples, so they flow unchanged into
// fairds.IngestLabeled, the dataloader pipeline, and the models in
// internal/models; every example under examples/ starts here.
package datagen

import (
	"math"
	"math/rand"

	"fairdms/internal/codec"
	"fairdms/internal/voigt"
)

// Poisson draws a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func Poisson(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		v := mean + float64(math.Sqrt(mean)*rng.NormFloat64())
		if v < 0 {
			v = 0
		}
		return math.Round(v)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return float64(k)
		}
		k++
	}
}

// ---------------------------------------------------------------------------
// BraggPeaks

// BraggRegime is the generative distribution of one experimental condition:
// every peak patch drawn from it shares shape statistics, which is what the
// embedding + clustering pipeline detects and what model transfer exploits.
type BraggRegime struct {
	Patch        int     // square patch size, paper uses 15
	AmpMean      float64 // mean peak amplitude
	AmpStd       float64
	WidthMean    float64 // mean of Sx and Sy
	WidthStd     float64
	EtaMean      float64 // Lorentzian fraction
	EtaStd       float64
	CenterJitter float64 // stddev of the center's offset from patch center (px)
	Noise        float64 // additive Gaussian noise sigma
	Background   float64
}

// DefaultBraggRegime is the paper-like early-experiment condition: compact,
// mostly Gaussian peaks.
func DefaultBraggRegime() BraggRegime {
	return BraggRegime{
		Patch: 15, AmpMean: 10, AmpStd: 1.5,
		WidthMean: 1.6, WidthStd: 0.2,
		EtaMean: 0.3, EtaStd: 0.05,
		CenterJitter: 1.2, Noise: 0.25, Background: 0.5,
	}
}

// GenerateOne draws a single labeled peak patch. The label is the true
// sub-pixel center (cx, cy) — the quantity BraggNN regresses.
func (r BraggRegime) GenerateOne(rng *rand.Rand) *codec.Sample {
	p := r.drawParams(rng)
	img := p.Render(r.Patch, r.Patch)
	if r.Noise > 0 {
		for i := range img {
			img[i] += float64(rng.NormFloat64() * r.Noise)
		}
	}
	return codec.SampleFromFloats(img, []int{r.Patch, r.Patch}, codec.F32, []float64{p.Cx, p.Cy})
}

// Generate draws n labeled peak patches.
func (r BraggRegime) Generate(rng *rand.Rand, n int) []*codec.Sample {
	out := make([]*codec.Sample, n)
	for i := range out {
		out[i] = r.GenerateOne(rng)
	}
	return out
}

// drawParams samples peak parameters from the regime.
func (r BraggRegime) drawParams(rng *rand.Rand) voigt.Params {
	c := float64(float64(r.Patch-1) / 2) // the compiler's ·0.5 must not fuse into c + …
	width := func() float64 {
		w := r.WidthMean + float64(rng.NormFloat64()*r.WidthStd)
		if w < 0.5 {
			w = 0.5
		}
		return w
	}
	eta := r.EtaMean + float64(rng.NormFloat64()*r.EtaStd)
	if eta < 0 {
		eta = 0
	}
	if eta > 1 {
		eta = 1
	}
	amp := r.AmpMean + float64(rng.NormFloat64()*r.AmpStd)
	if amp < 1 {
		amp = 1
	}
	return voigt.Params{
		Amp: amp,
		Cx:  c + float64(rng.NormFloat64()*r.CenterJitter),
		Cy:  c + float64(rng.NormFloat64()*r.CenterJitter),
		Sx:  width(), Sy: width(),
		Eta: eta, Background: r.Background,
	}
}

// BraggDriftSchedule describes how regimes evolve over a sequence of scans
// (datasets): parameters drift slowly within a phase and jump at DriftAt —
// the "sample deformation" event of the paper's Fig. 2 and Fig. 16.
type BraggDriftSchedule struct {
	Base     BraggRegime
	DriftAt  int     // dataset index where the sharp deformation happens
	SlowRate float64 // per-dataset fractional slow drift of the width (e.g. 0.004)
	// JumpWidth/JumpEta are the post-drift regime shifts: deformed samples
	// produce broader, more Lorentzian peaks.
	JumpWidth float64
	JumpEta   float64
}

// DefaultBraggDrift returns the schedule used by the experiments: a slow
// 0.4%/dataset width drift plus a sharp deformation at DriftAt.
func DefaultBraggDrift(driftAt int) BraggDriftSchedule {
	return BraggDriftSchedule{
		Base:      DefaultBraggRegime(),
		DriftAt:   driftAt,
		SlowRate:  0.004,
		JumpWidth: 1.4,
		JumpEta:   0.45,
	}
}

// RegimeAt returns the generative regime of dataset i under the schedule.
func (s BraggDriftSchedule) RegimeAt(i int) BraggRegime {
	r := s.Base
	r.WidthMean = float64(r.WidthMean * (1 + float64(s.SlowRate*float64(i))))
	if i >= s.DriftAt {
		r.WidthMean += s.JumpWidth
		r.EtaMean += s.JumpEta
		if r.EtaMean > 1 {
			r.EtaMean = 1
		}
		r.Noise *= 1.5
	}
	return r
}

// BraggExperiment generates a full drifting scan sequence: datasets[i] holds
// perDataset labeled patches drawn from RegimeAt(i).
func (s BraggDriftSchedule) BraggExperiment(seed int64, numDatasets, perDataset int) [][]*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*codec.Sample, numDatasets)
	for i := range out {
		out[i] = s.RegimeAt(i).Generate(rng, perDataset)
	}
	return out
}

// ---------------------------------------------------------------------------
// CookieBox

// CookieRegime parameterizes the CookieBox detector simulation: each image
// row is the energy histogram of one angular channel; the photoelectron
// energy distribution is a Gaussian whose amplitude is modulated around the
// 16-channel ring by the laser field (β, φ).
type CookieRegime struct {
	Size    int     // square image size (rows = angular channels, cols = energy bins)
	CenterE float64 // central energy as a fraction of Size (0..1)
	WidthE  float64 // energy width as a fraction of Size
	Beta    float64 // angular anisotropy amplitude in [0, 1)
	Phase   float64 // angular phase (radians)
	Counts  float64 // mean counts per channel — low counts = hard inputs
}

// DefaultCookieRegime is a paper-like condition at a reduced 32×32 size
// (the full detector is 128×128; see DESIGN.md on scaling).
func DefaultCookieRegime() CookieRegime {
	return CookieRegime{Size: 32, CenterE: 0.5, WidthE: 0.08, Beta: 0.6, Phase: 0.7, Counts: 220}
}

// Density returns the clean energy-angle density image the detector would
// record with infinite statistics — CookieNetAE's target. The image is
// normalized to unit total mass; the angular modulation (β, φ) is visible
// as per-channel amplitude differences.
func (r CookieRegime) Density() []float64 {
	n := r.Size
	img := make([]float64, n*n)
	total := 0.0
	for ch := 0; ch < n; ch++ {
		theta := 2 * math.Pi * float64(ch) / float64(n)
		amp := 1 + float64(r.Beta*math.Cos(2*(theta-r.Phase)))
		for e := 0; e < n; e++ {
			x := (float64(e)/float64(n) - r.CenterE) / r.WidthE
			v := float64(amp * math.Exp(-x*x/2))
			img[ch*n+e] = v
			total += v
		}
	}
	if total > 0 {
		for i := range img {
			img[i] /= total
		}
	}
	return img
}

// GenerateOne draws one noisy detector image: per-bin Poisson counts around
// the density scaled so each channel receives ~Counts electrons on average,
// quantized to 8 bits. The label is the clean density.
func (r CookieRegime) GenerateOne(rng *rand.Rand) *codec.Sample {
	density := r.Density()
	n := r.Size
	img := make([]float64, n*n)
	maxCount := 0.0
	intensity := r.Counts * float64(n) // density has unit total mass
	for i, d := range density {
		img[i] = Poisson(rng, d*intensity)
		if img[i] > maxCount {
			maxCount = img[i]
		}
	}
	// 8-bit quantization, as in the real detector readout.
	scale := 1.0
	if maxCount > 255 {
		scale = 255 / maxCount
	}
	for i := range img {
		img[i] = math.Round(img[i] * scale)
	}
	return codec.SampleFromFloats(img, []int{n, n}, codec.U8, density)
}

// Generate draws n labeled detector images.
func (r CookieRegime) Generate(rng *rand.Rand, n int) []*codec.Sample {
	out := make([]*codec.Sample, n)
	for i := range out {
		out[i] = r.GenerateOne(rng)
	}
	return out
}

// CookieDriftSchedule drifts the central energy and laser phase gradually —
// the paper observes CookieBox data "changes slightly over time", producing
// the near-monotone error-vs-JSD relation of Fig. 11.
type CookieDriftSchedule struct {
	Base        CookieRegime
	EnergyRate  float64 // per-dataset shift of CenterE
	PhaseRate   float64 // per-dataset shift of Phase (radians)
	CountsDecay float64 // per-dataset multiplicative decay of Counts
}

// DefaultCookieDrift returns a gradual drift schedule.
func DefaultCookieDrift() CookieDriftSchedule {
	return CookieDriftSchedule{Base: DefaultCookieRegime(), EnergyRate: 0.012, PhaseRate: 0.05, CountsDecay: 0.995}
}

// RegimeAt returns the regime of dataset i.
func (s CookieDriftSchedule) RegimeAt(i int) CookieRegime {
	r := s.Base
	r.CenterE += float64(s.EnergyRate * float64(i))
	if r.CenterE > 0.85 {
		r.CenterE = 0.85
	}
	r.Phase += float64(s.PhaseRate * float64(i))
	r.Counts *= math.Pow(s.CountsDecay, float64(i))
	return r
}

// CookieExperiment generates a drifting dataset sequence.
func (s CookieDriftSchedule) CookieExperiment(seed int64, numDatasets, perDataset int) [][]*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*codec.Sample, numDatasets)
	for i := range out {
		out[i] = s.RegimeAt(i).Generate(rng, perDataset)
	}
	return out
}

// ---------------------------------------------------------------------------
// Tomography

// TomoRegime parameterizes synthetic tomography slices: nested ellipses
// (a Shepp-Logan-style phantom) with dose-dependent Poisson noise.
type TomoRegime struct {
	Size     int     // square slice size; the paper's is 2048, we default 64
	Ellipses int     // number of nested ellipses
	Dose     float64 // mean photons at full intensity; lower = noisier
}

// DefaultTomoRegime returns a 64×64 low-dose condition.
func DefaultTomoRegime() TomoRegime {
	return TomoRegime{Size: 64, Ellipses: 5, Dose: 800}
}

// GenerateOne draws one noisy 16-bit slice. The label is empty: tomography
// participates only in the storage study (Fig. 6). Use GeneratePair for
// denoising workloads that need the clean ground truth.
func (r TomoRegime) GenerateOne(rng *rand.Rand) *codec.Sample {
	noisy, _ := r.generate(rng)
	return noisy
}

// GeneratePair draws a (noisy, clean) slice pair for denoiser training —
// the TomoGAN low-dose denoising task the paper cites for this dataset.
// The noisy sample's label is the clean image normalized to [0, 1].
func (r TomoRegime) GeneratePair(rng *rand.Rand) (*codec.Sample, []float64) {
	return r.generate(rng)
}

func (r TomoRegime) generate(rng *rand.Rand) (*codec.Sample, []float64) {
	n := r.Size
	clean := make([]float64, n*n)
	// Random nested ellipses with decreasing intensity.
	for e := 0; e < r.Ellipses; e++ {
		cx := 0.5 + float64(0.2*rng.NormFloat64()*0.3)
		cy := 0.5 + float64(0.2*rng.NormFloat64()*0.3)
		ax := 0.45 * math.Pow(0.75, float64(e)) * (0.8 + float64(0.4*rng.Float64()))
		ay := 0.45 * math.Pow(0.75, float64(e)) * (0.8 + float64(0.4*rng.Float64()))
		rot := rng.Float64() * math.Pi
		val := 0.4 + float64(0.6*rng.Float64())
		sin, cos := math.Sin(rot), math.Cos(rot)
		for y := 0; y < n; y++ {
			fy := float64(y)/float64(n) - cy
			for x := 0; x < n; x++ {
				fx := float64(x)/float64(n) - cx
				u := (float64(fx*cos) + float64(fy*sin)) / ax
				v := (float64(-fx*sin) + float64(fy*cos)) / ay
				if float64(u*u)+float64(v*v) <= 1 {
					clean[y*n+x] += val
				}
			}
		}
	}
	// Normalize to [0, 1] and apply Poisson counting at the dose level.
	maxv := 0.0
	for _, v := range clean {
		if v > maxv {
			maxv = v
		}
	}
	img := make([]float64, n*n)
	cleanFrac := make([]float64, n*n)
	for i, v := range clean {
		frac := 0.05
		if maxv > 0 {
			frac = 0.05 + 0.95*v/maxv
		}
		cleanFrac[i] = frac
		counts := Poisson(rng, frac*r.Dose)
		img[i] = counts * 65535 / (r.Dose * 1.5)
	}
	return codec.SampleFromFloats(img, []int{n, n}, codec.U16, nil), cleanFrac
}

// Generate draws n slices.
func (r TomoRegime) Generate(rng *rand.Rand, n int) []*codec.Sample {
	out := make([]*codec.Sample, n)
	for i := range out {
		out[i] = r.GenerateOne(rng)
	}
	return out
}
