package nn

import (
	"fmt"

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
