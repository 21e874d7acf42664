package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"fairdms/internal/tensor"
)

// StateDict is a snapshot of model parameters, keyed by position so that two
// structurally identical models (e.g. a zoo checkpoint and a fresh instance)
// can exchange weights even when layer name strings collide.
type StateDict struct {
	Names  []string
	Shapes [][]int
	Values [][]float64
}

// State extracts a deep-copied state dict from the model.
func (m *Model) State() *StateDict {
	ps := m.Params()
	sd := &StateDict{
		Names:  make([]string, len(ps)),
		Shapes: make([][]int, len(ps)),
		Values: make([][]float64, len(ps)),
	}
	for i, p := range ps {
		sd.Names[i] = p.Name
		sd.Shapes[i] = append([]int(nil), p.Value.Shape()...)
		sd.Values[i] = append([]float64(nil), p.Value.Data()...)
	}
	return sd
}

// LoadState copies weights from sd into the model. The model must have the
// same number of parameters with matching shapes, in the same order.
func (m *Model) LoadState(sd *StateDict) error {
	ps := m.Params()
	if len(ps) != len(sd.Values) {
		return fmt.Errorf("nn: state dict has %d params, model has %d", len(sd.Values), len(ps))
	}
	for i, p := range ps {
		if p.Value.Len() != len(sd.Values[i]) {
			return fmt.Errorf("nn: param %d (%s) has %d elements, state dict has %d",
				i, p.Name, p.Value.Len(), len(sd.Values[i]))
		}
		copy(p.Value.Data(), sd.Values[i])
	}
	return nil
}

// Encode writes the state dict in binary (gob) form.
func (sd *StateDict) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(sd); err != nil {
		return fmt.Errorf("nn: encoding state dict: %w", err)
	}
	return nil
}

// DecodeStateDict reads a state dict written by Encode.
func DecodeStateDict(r io.Reader) (*StateDict, error) {
	var sd StateDict
	if err := gob.NewDecoder(r).Decode(&sd); err != nil {
		return nil, fmt.Errorf("nn: decoding state dict: %w", err)
	}
	return &sd, nil
}

// Bytes serializes the state dict to a byte slice.
func (sd *StateDict) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := sd.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// StateDictFromBytes deserializes a state dict produced by Bytes.
func StateDictFromBytes(b []byte) (*StateDict, error) {
	return DecodeStateDict(bytes.NewReader(b))
}

// CopyWeights copies all parameter values from src into dst. The models must
// be structurally identical. It is used for checkpoint transfer and for the
// BYOL target network.
func CopyWeights(dst, src *Model) error {
	return dst.LoadState(src.State())
}

// EMAUpdate moves dst's parameters toward src with decay τ:
// dst = τ·dst + (1-τ)·src. This is BYOL's target-network update.
func EMAUpdate(dst, src *Model, tau float64) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: EMA between models with %d vs %d params", len(dp), len(sp))
	}
	for i := range dp {
		dd, sd := dp[i].Value.Data(), sp[i].Value.Data()
		if len(dd) != len(sd) {
			return fmt.Errorf("nn: EMA param %d size mismatch %d vs %d", i, len(dd), len(sd))
		}
		for j := range dd {
			dd[j] = float64(tau*dd[j]) + float64((1-tau)*sd[j])
		}
	}
	return nil
}

// GradNorm returns the global L2 norm of all parameter gradients, useful for
// debugging training and for gradient clipping.
func GradNorm(m *Model) float64 {
	s := 0.0
	for _, p := range m.Params() {
		s += tensor.Dot(p.Grad, p.Grad)
	}
	return math.Sqrt(s)
}

// ClipGradNorm scales gradients so their global norm is at most maxNorm and
// returns the pre-clip norm.
func ClipGradNorm(m *Model, maxNorm float64) float64 {
	n := GradNorm(m)
	if n > maxNorm && n > 0 {
		scale := maxNorm / n
		for _, p := range m.Params() {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return n
}
