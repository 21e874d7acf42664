// Package uq implements the uncertainty-quantification tools fairDMS uses
// to decide when models need attention: Monte-Carlo dropout prediction
// intervals (Gal & Ghahramani 2016), which the paper's Fig. 2 uses to track
// BraggNN degradation as experimental conditions drift.
//
// The companion trigger signal — fuzzy-clustering certainty over the
// embedding space — lives in internal/cluster and is exposed through
// fairds.Service.Certainty; examples/hedm wires both into the full
// monitor-and-refresh loop.
package uq

import (
	"fmt"
	"math"

	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
)

// MCResult summarizes T stochastic forward passes.
type MCResult struct {
	Mean  *tensor.Tensor // per-output posterior mean (N, outDim)
	Std   *tensor.Tensor // per-output posterior stddev (N, outDim)
	Lo95  *tensor.Tensor // mean − 1.96·std
	Hi95  *tensor.Tensor // mean + 1.96·std
	Width float64        // mean 95% interval width across all outputs
}

// MCDropout runs T forward passes with dropout active at inference and
// aggregates per-output mean, standard deviation, and 95% bounds. The model
// must contain at least one Dropout layer; otherwise an error is returned
// (all passes would be identical and the interval degenerate).
func MCDropout(model *nn.Model, x *tensor.Tensor, T int) (*MCResult, error) {
	if T < 2 {
		return nil, fmt.Errorf("uq: MC dropout needs T >= 2 passes, got %d", T)
	}
	if n := nn.SetMC(model, true); n == 0 {
		return nil, fmt.Errorf("uq: model has no Dropout layers for MC sampling")
	}
	defer nn.SetMC(model, false)

	var sum, sumSq *tensor.Tensor
	for t := 0; t < T; t++ {
		out := model.Forward(x, false)
		if sum == nil {
			sum = tensor.New(out.Shape()...)
			sumSq = tensor.New(out.Shape()...)
		}
		tensor.AddInPlace(sum, out)
		tensor.AddInPlace(sumSq, tensor.Mul(out, out))
	}
	n := float64(T)
	mean := tensor.Scale(sum, 1/n)
	variance := tensor.Sub(tensor.Scale(sumSq, 1/n), tensor.Mul(mean, mean))
	std := tensor.Apply(variance, func(v float64) float64 {
		if v < 0 {
			v = 0 // guard rounding
		}
		return math.Sqrt(v)
	})
	lo := tensor.Sub(mean, tensor.Scale(std, 1.96))
	hi := tensor.Add(mean, tensor.Scale(std, 1.96))
	return &MCResult{
		Mean: mean, Std: std, Lo95: lo, Hi95: hi,
		Width: 2 * 1.96 * std.Mean(),
	}, nil
}

// MeanUncertainty runs MC dropout and returns the scalar mean predictive
// stddev — the degradation signal plotted on Fig. 2's right axis.
func MeanUncertainty(model *nn.Model, x *tensor.Tensor, T int) (float64, error) {
	res, err := MCDropout(model, x, T)
	if err != nil {
		return 0, err
	}
	return res.Std.Mean(), nil
}

// DriftDetector tracks a rolling baseline of an uncertainty (or error)
// signal and fires when the signal exceeds the baseline by a multiplicative
// threshold — the simple trigger rule fairDMS uses to decide that a model
// needs refreshing.
type DriftDetector struct {
	Warmup    int     // observations used to establish the baseline
	Threshold float64 // trigger when value > Threshold × baseline mean

	history []float64
}

// Observe records a value and reports whether drift is detected.
func (d *DriftDetector) Observe(v float64) bool {
	if d.Warmup <= 0 {
		d.Warmup = 5
	}
	if d.Threshold <= 1 {
		d.Threshold = 1.5
	}
	if len(d.history) < d.Warmup {
		d.history = append(d.history, v)
		return false
	}
	baseline := stats.Mean(d.history)
	return v > d.Threshold*baseline
}
