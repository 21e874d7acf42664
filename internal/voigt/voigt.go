// Package voigt implements the 2-D pseudo-Voigt peak model and a
// Levenberg–Marquardt fitter. In the paper this is the MIDAS pseudo-Voigt
// code: the compute-intensive "conventional method" that labels Bragg
// diffraction peaks with sub-pixel centers-of-mass (§III-H), against which
// fairDS's label reuse is compared. The same profile doubles as the
// generative model for the synthetic BraggPeaks dataset.
package voigt

import (
	"errors"
	"fmt"
	"math"
)

// Params are the seven parameters of a 2-D pseudo-Voigt peak.
type Params struct {
	Amp        float64 // peak amplitude above background
	Cx, Cy     float64 // center (column, row), sub-pixel
	Sx, Sy     float64 // widths along x and y (> 0)
	Eta        float64 // Lorentzian fraction in [0, 1]
	Background float64 // constant background level
}

// Eval returns the profile value at (x, y):
//
//	v = A·(η·L + (1−η)·G) + bg
//	G = exp(−r²/2),  L = 1/(1+r²),  r² = ((x−cx)/sx)² + ((y−cy)/sy)²
func (p Params) Eval(x, y float64) float64 {
	sx, sy := p.Sx, p.Sy
	if sx < 1e-6 {
		sx = 1e-6
	}
	if sy < 1e-6 {
		sy = 1e-6
	}
	eta := clamp01(p.Eta)
	dx := (x - p.Cx) / sx
	dy := (y - p.Cy) / sy
	r2 := float64(dx*dx) + float64(dy*dy)
	g := math.Exp(-r2 / 2)
	l := 1 / (1 + r2)
	return float64(p.Amp*(float64(eta*l)+float64((1-eta)*g))) + p.Background
}

// Render fills an h×w image (row-major) with the profile.
func (p Params) Render(h, w int) []float64 {
	img := make([]float64, h*w)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			img[y*w+x] = p.Eval(float64(x), float64(y))
		}
	}
	return img
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// vector form used by the optimizer
func (p Params) toVec() [7]float64 {
	return [7]float64{p.Amp, p.Cx, p.Cy, p.Sx, p.Sy, p.Eta, p.Background}
}

func fromVec(v [7]float64) Params {
	return Params{Amp: v[0], Cx: v[1], Cy: v[2], Sx: v[3], Sy: v[4], Eta: v[5], Background: v[6]}
}

// CenterOfMass returns the intensity-weighted centroid (x, y) of an h×w
// image after subtracting its minimum, the standard initial guess for peak
// fitting.
func CenterOfMass(img []float64, h, w int) (float64, float64) {
	lo := math.Inf(1)
	for _, v := range img {
		if v < lo {
			lo = v
		}
	}
	var sx, sy, mass float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m := img[y*w+x] - lo
			sx += float64(m * float64(x))
			sy += float64(m * float64(y))
			mass += m
		}
	}
	if mass == 0 {
		return float64(w-1) / 2, float64(h-1) / 2
	}
	return sx / mass, sy / mass
}

// FitResult reports a converged fit.
type FitResult struct {
	Params    Params
	Residual  float64 // final sum of squared residuals
	Iters     int
	Converged bool
}

// FitConfig tunes the Levenberg–Marquardt optimizer.
type FitConfig struct {
	MaxIters int     // default 200
	Tol      float64 // relative residual-improvement tolerance, default 1e-10
}

// Fit fits a 2-D pseudo-Voigt profile to an h×w image with
// Levenberg–Marquardt, starting from a center-of-mass initial guess.
// This is the per-peak unit of work whose cost dominates conventional
// labeling in the paper's case study.
func Fit(img []float64, h, w int, cfg FitConfig) (*FitResult, error) {
	if len(img) != h*w {
		return nil, fmt.Errorf("voigt: image %d elements, expected %d×%d", len(img), h, w)
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 200
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-10
	}

	// Initial guess.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range img {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	cx, cy := CenterOfMass(img, h, w)
	p := Params{
		Amp: hi - lo, Cx: cx, Cy: cy,
		Sx: float64(w) / 6, Sy: float64(h) / 6,
		Eta: 0.5, Background: lo,
	}
	vec := p.toVec()

	n := h * w
	resid := make([]float64, n)
	jac := make([][7]float64, n)
	lambda := 1e-3
	prevSSR := ssr(img, h, w, fromVec(vec), resid)
	iters := 0
	converged := false

	for ; iters < cfg.MaxIters; iters++ {
		// Numeric Jacobian by forward differences.
		for j := 0; j < 7; j++ {
			step := float64(1e-6 * (1 + math.Abs(vec[j])))
			bumped := vec
			bumped[j] += step
			bp := fromVec(bumped)
			idx := 0
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					base := fromVec(vec).Eval(float64(x), float64(y))
					jac[idx][j] = (bp.Eval(float64(x), float64(y)) - base) / step
					idx++
				}
			}
		}

		// Normal equations: (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr.
		var jtj [7][7]float64
		var jtr [7]float64
		for i := 0; i < n; i++ {
			for a := 0; a < 7; a++ {
				jtr[a] += float64(jac[i][a] * resid[i])
				for b := a; b < 7; b++ {
					jtj[a][b] += float64(jac[i][a] * jac[i][b])
				}
			}
		}
		for a := 0; a < 7; a++ {
			for b := 0; b < a; b++ {
				jtj[a][b] = jtj[b][a]
			}
		}

		improved := false
		for attempt := 0; attempt < 10; attempt++ {
			aug := jtj
			for a := 0; a < 7; a++ {
				aug[a][a] += float64(lambda * (jtj[a][a] + 1e-12))
			}
			delta, err := solve7(aug, jtr)
			if err != nil {
				lambda *= 10
				continue
			}
			trial := vec
			for a := 0; a < 7; a++ {
				trial[a] += delta[a]
			}
			sanitize(&trial, h, w)
			trialSSR := ssr(img, h, w, fromVec(trial), resid)
			if trialSSR < prevSSR {
				rel := (prevSSR - trialSSR) / (prevSSR + 1e-300)
				vec = trial
				prevSSR = trialSSR
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if rel < cfg.Tol {
					converged = true
				}
				break
			}
			lambda *= 10
		}
		if !improved || converged {
			converged = converged || !improved
			break
		}
	}
	// Refresh residuals for the accepted parameters.
	final := ssr(img, h, w, fromVec(vec), resid)
	return &FitResult{Params: fromVec(vec), Residual: final, Iters: iters + 1, Converged: converged}, nil
}

// sanitize keeps parameters in their physical ranges during optimization.
func sanitize(v *[7]float64, h, w int) {
	if v[3] < 0.3 {
		v[3] = 0.3
	}
	if v[4] < 0.3 {
		v[4] = 0.3
	}
	if v[3] > float64(w) {
		v[3] = float64(w)
	}
	if v[4] > float64(h) {
		v[4] = float64(h)
	}
	v[5] = clamp01(v[5])
	if v[1] < -1 {
		v[1] = -1
	}
	if v[1] > float64(w) {
		v[1] = float64(w)
	}
	if v[2] < -1 {
		v[2] = -1
	}
	if v[2] > float64(h) {
		v[2] = float64(h)
	}
}

// ssr computes residuals (data − model) and their sum of squares.
func ssr(img []float64, h, w int, p Params, resid []float64) float64 {
	s := 0.0
	idx := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := img[idx] - p.Eval(float64(x), float64(y))
			resid[idx] = r
			s += float64(r * r)
			idx++
		}
	}
	return s
}

// solve7 solves a 7×7 linear system by Gaussian elimination with partial
// pivoting.
func solve7(a [7][7]float64, b [7]float64) ([7]float64, error) {
	const n = 7
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-300 {
			return b, errors.New("voigt: singular normal equations")
		}
		if piv != col {
			a[col], a[piv] = a[piv], a[col]
			b[col], b[piv] = b[piv], b[col]
		}
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= float64(f * a[col][c])
			}
			b[r] -= float64(f * b[col])
		}
	}
	var x [7]float64
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= float64(a[r][c] * x[c])
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}
