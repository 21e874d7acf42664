// Package experiments contains the harnesses that regenerate every figure
// of the fairDMS paper's evaluation (§III). Each harness builds its
// workload from the datagen substrates, runs the relevant fairDMS
// machinery, and returns a structured result whose Table method prints the
// same series the paper plots. cmd/experiments runs them all. The fits that
// are the paper's Fig. 5 action (Figs. 13–15) run trainer.Fit, the fit step
// the daemon's /v1/train jobs run, at its learning rates.
//
// Scale note: workloads default to laptop-sized variants of the paper's
// datasets (see DESIGN.md); Config fields let callers scale up.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"fairdms/internal/codec"
	"fairdms/internal/dataloader"
	"fairdms/internal/tensor"
)

// collate stacks samples into (x, y) tensors, failing the experiment on
// malformed data (programmer error in a harness).
func collate(samples []*codec.Sample) (*tensor.Tensor, *tensor.Tensor) {
	b, err := dataloader.Collate(samples)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return b.X, b.Y
}

// table formats aligned columns for experiment reports.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }

// randFor returns a seeded *rand.Rand (helper so harnesses stay terse).
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// vconcat stacks two 2-D tensors vertically (same column count).
func vconcat(a, b *tensor.Tensor) *tensor.Tensor {
	if a.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("experiments: vconcat width mismatch %d vs %d", a.Dim(1), b.Dim(1)))
	}
	out := tensor.New(a.Dim(0)+b.Dim(0), a.Dim(1))
	copy(out.Data()[:a.Len()], a.Data())
	copy(out.Data()[a.Len():], b.Data())
	return out
}
