// Command tomography exercises the third paper application: low-dose
// tomography denoising (the TomoGAN role). It trains a DenoiseNet on
// normal-dose data, then shows the fairDMS fine-tuning effect on a new,
// lower-dose condition: in the same epochs, starting from the trained
// checkpoint ends at a lower validation loss and a higher PSNR than
// training from scratch — model reuse across experimental conditions, the
// heart of fairMS.
//
// Run with: go run ./examples/tomography
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"fairdms/internal/datagen"
	"fairdms/internal/models"
	"fairdms/internal/nn"
	"fairdms/internal/tensor"
	"fairdms/internal/trainer"
)

const (
	size     = 16
	trainN   = 60
	valN     = 16
	doseHigh = 900
	doseLow  = 250
)

func main() {
	rng := rand.New(rand.NewSource(71))

	fmt.Printf("— training DenoiseNet on dose=%d slices\n", doseHigh)
	base := models.NewDenoiseNet(rng, size)
	hx, hy := pairs(rng, datagen.TomoRegime{Size: size, Ellipses: 4, Dose: doseHigh}, trainN)
	hvx, hvy := pairs(rng, datagen.TomoRegime{Size: size, Ellipses: 4, Dose: doseHigh}, valN)
	nx, nvx := base.NormalizeInputs(hx), base.NormalizeInputs(hvx)
	fmt.Printf("  PSNR before: %.2f dB (noisy input: %.2f dB)\n", base.PSNR(nvx, hvy), inputPSNR(nvx, hvy))
	opt := nn.NewAdam(base.Net.Params(), 2e-3)
	// The checkpoint being reused, not the Fig. 5 action: a plain nn.Fit.
	nn.Fit(base.Net, opt, nx, hy, nvx, hvy, nn.TrainConfig{Epochs: 30, BatchSize: 8, Seed: 72})
	fmt.Printf("  PSNR after:  %.2f dB\n", base.PSNR(nvx, hvy))

	// New condition: much lower dose (noisier data). Both runs are
	// trainer.Fit, the fit step of a /v1/train job, at its learning rates;
	// the step holds out valN of the slices, and PSNR is scored on them.
	fmt.Printf("\n— new experimental condition: dose=%d\n", doseLow)
	lx, ly := pairs(rng, datagen.TomoRegime{Size: size, Ellipses: 4, Dose: doseLow}, trainN+valN)
	// The target is a reachable validation MSE at this dose.
	spec := trainer.Spec{Epochs: 40, BatchSize: 8, TargetLoss: 0.006, ValFraction: float64(valN) / (trainN + valN), Seed: 73}
	nlx := base.NormalizeInputs(lx)
	_, _, nlvx, lvy := trainer.Split(nlx, ly, spec.ValFraction, spec.Seed)

	run := func(name string, warm bool) {
		m := models.NewDenoiseNet(rng, size)
		if warm {
			if err := m.Net.LoadState(base.Net.State()); err != nil {
				log.Fatal(err)
			}
		}
		res := trainer.Fit(m.Net, nlx, ly, warm, spec, nil, nil)
		status := fmt.Sprintf("converged in %d epochs", res.Epochs)
		if !res.Converged {
			status = fmt.Sprintf("not converged after %d epochs (val %.4f)", res.Epochs, res.ValLoss[len(res.ValLoss)-1])
		}
		fmt.Printf("  %-22s PSNR %.2f dB, %s\n", name, m.PSNR(nlvx, lvy), status)
	}
	run("fine-tune (fairMS path)", true)
	run("train from scratch", false)
}

// pairs builds (noisy, clean) tensors for n slices.
func pairs(rng *rand.Rand, r datagen.TomoRegime, n int) (*tensor.Tensor, *tensor.Tensor) {
	x := tensor.New(n, r.Size*r.Size)
	y := tensor.New(n, r.Size*r.Size)
	for i := 0; i < n; i++ {
		noisy, clean := r.GeneratePair(rng)
		copy(x.Row(i), noisy.Floats())
		copy(y.Row(i), clean)
	}
	return x, y
}

// inputPSNR scores the raw noisy input against the clean target.
func inputPSNR(x, clean *tensor.Tensor) float64 {
	total := 0.0
	for i := 0; i < x.Dim(0); i++ {
		mse := 0.0
		xr, cr := x.Row(i), clean.Row(i)
		for j := range xr {
			diff := xr[j] - cr[j]
			mse += float64(diff * diff)
		}
		mse /= float64(len(xr))
		if mse < 1e-12 {
			mse = 1e-12
		}
		total += float64(10 * math.Log10(1/mse))
	}
	return total / float64(x.Dim(0))
}
