package nn

import (
	"fmt"
	"math"

	"fairdms/internal/tensor"
)

// MSE returns the mean-squared-error loss between prediction and target and
// the gradient of the loss with respect to the prediction. The mean is taken
// over every element, matching PyTorch's MSELoss(reduction="mean").
func MSE(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	n := float64(pred.Len())
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	loss := 0.0
	for i := range pd {
		d := pd[i] - td[i]
		loss += float64(d * d)
		gd[i] = 2 * d / n
	}
	return loss / n, grad
}

// BCE returns the binary cross-entropy loss for predictions in (0,1) and the
// gradient with respect to the predictions. Inputs are clamped away from
// {0,1} for numerical stability.
func BCE(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: BCE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	const eps = 1e-12
	n := float64(pred.Len())
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	loss := 0.0
	for i := range pd {
		p := pd[i]
		if p < eps {
			p = eps
		}
		if p > 1-eps {
			p = 1 - eps
		}
		t := td[i]
		loss -= float64(t*math.Log(p)) + float64((1-t)*math.Log(1-p))
		gd[i] = (p - t) / (p * (1 - p)) / n
	}
	return loss / n, grad
}

// L1 returns the mean absolute error and its (sub)gradient.
func L1(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: L1 shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	n := float64(pred.Len())
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	loss := 0.0
	for i := range pd {
		d := pd[i] - td[i]
		loss += math.Abs(d)
		switch {
		case d > 0:
			gd[i] = 1 / n
		case d < 0:
			gd[i] = -1 / n
		}
	}
	return loss / n, grad
}

// NTXent computes the normalized-temperature cross-entropy loss of SimCLR
// (Chen et al. 2020) over a batch of paired embeddings: za[i] and zb[i] are
// two augmented views of the same sample. It returns the loss and the
// gradients with respect to za and zb.
//
// The loss for anchor i with positive j uses cosine similarities against all
// 2N-1 other embeddings as negatives.
func NTXent(za, zb *tensor.Tensor, temperature float64) (float64, *tensor.Tensor, *tensor.Tensor) {
	if !za.SameShape(zb) || za.NDim() != 2 {
		panic(fmt.Sprintf("nn: NTXent needs matching 2-D views, got %v vs %v", za.Shape(), zb.Shape()))
	}
	if temperature <= 0 {
		panic("nn: NTXent temperature must be positive")
	}
	n, d := za.Dim(0), za.Dim(1)
	m := 2 * n

	// Stack views and L2-normalize rows; remember norms for backprop.
	z := tensor.New(m, d)
	for i := 0; i < n; i++ {
		copy(z.Row(i), za.Row(i))
		copy(z.Row(n+i), zb.Row(i))
	}
	norms := make([]float64, m)
	zn := tensor.New(m, d)
	for i := 0; i < m; i++ {
		r := z.Row(i)
		s := 0.0
		for _, v := range r {
			s += float64(v * v)
		}
		norms[i] = math.Sqrt(s) + 1e-12
		out := zn.Row(i)
		for j, v := range r {
			out[j] = v / norms[i]
		}
	}

	// Similarity matrix s[i][j] = <zn_i, zn_j>/τ with the diagonal masked.
	sim := tensor.MatMulTransB(zn, zn)
	tensor.ScaleInPlace(sim, 1/temperature)
	// Softmax rows (excluding self) and accumulate loss + dL/dsim.
	dSim := tensor.New(m, m)
	loss := 0.0
	for i := 0; i < m; i++ {
		pos := i + n
		if i >= n {
			pos = i - n
		}
		row := sim.Row(i)
		maxv := math.Inf(-1)
		for j := 0; j < m; j++ {
			if j != i && row[j] > maxv {
				maxv = row[j]
			}
		}
		denom := 0.0
		for j := 0; j < m; j++ {
			if j != i {
				denom += math.Exp(row[j] - maxv)
			}
		}
		logDenom := math.Log(denom) + maxv
		loss += logDenom - row[pos]
		dRow := dSim.Row(i)
		for j := 0; j < m; j++ {
			if j == i {
				continue
			}
			p := math.Exp(row[j]-maxv) / denom
			dRow[j] = p / float64(m)
		}
		dRow[pos] -= 1 / float64(m)
	}
	loss /= float64(m)

	// Backprop through sim = zn·znᵀ/τ: dZn = (dSim + dSimᵀ)·zn / τ.
	dSym := tensor.Add(dSim, tensor.Transpose(dSim))
	dZn := tensor.MatMul(dSym, zn)
	tensor.ScaleInPlace(dZn, 1/temperature)

	// Backprop through row normalization: for y = x/|x|,
	// dx = (dy - y·<y, dy>) / |x|.
	dZ := tensor.New(m, d)
	for i := 0; i < m; i++ {
		y := zn.Row(i)
		dy := dZn.Row(i)
		dot := 0.0
		for j := range y {
			dot += float64(y[j] * dy[j])
		}
		out := dZ.Row(i)
		for j := range y {
			out[j] = (dy[j] - float64(y[j]*dot)) / norms[i]
		}
	}

	ga := tensor.New(n, d)
	gb := tensor.New(n, d)
	for i := 0; i < n; i++ {
		copy(ga.Row(i), dZ.Row(i))
		copy(gb.Row(i), dZ.Row(n+i))
	}
	return loss, ga, gb
}
