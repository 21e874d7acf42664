package tensor

import "sync"

// scratch holds 2-D tensors whose last user is done with them. It is one
// pool for every shape: Borrow re-shapes what it gets with Reuse2D, so a
// buffer too small for the request is dropped and a new one takes its
// place, and the pool settles on buffers as large as the largest request.
var scratch sync.Pool

// Borrow returns a rows×cols tensor from the scratch pool, with Reuse2D's
// semantics: the elements are stale — whatever the last borrower left —
// and the caller overwrites them. The caller owns it until it hands it to
// Release; only the code that borrowed a tensor may release it, and only
// once nothing reads it any more. A tensor that is returned to a caller,
// stored, or kept by a trainer is never released: it is then simply an
// allocation.
func Borrow(rows, cols int) *Tensor {
	t, _ := scratch.Get().(*Tensor)
	return Reuse2D(t, rows, cols)
}

// Release returns a borrowed tensor to the scratch pool. A nil t is
// ignored.
func Release(t *Tensor) {
	if t != nil {
		scratch.Put(t)
	}
}
