package tensor

import (
	"runtime"
	"sync"
)

// ForkWork is the least work — multiply-adds, or element visits of similar
// cost — that a kernel splits across goroutines. Starting and joining the
// goroutines costs a few microseconds and leaves the second half waiting to
// be stolen by an idle P, so a product of a couple of hundred microseconds
// runs as fast on the caller. A 64-row batch through the embedder's 225×64
// first layer (0.9 M) forks; no single product of a BraggNN training step
// at batch ≤ 32 does (the largest is 32×200×64 = 0.4 M). nn.Fit forks such
// a step whole instead, as blocks of 8 samples, once the step's work
// (≈ 93 k multiply-adds a sample for BraggNN on 15×15 patches) reaches
// ForkWork.
const ForkWork = 1 << 19

// minParallelRows is the row count from which ParallelFor fans out.
const minParallelRows = 64

// forkWorkers is the one fork decision: how many goroutines should share
// rows rows of work work. 1 means stay on the caller.
func forkWorkers(rows, work int) int {
	if work < ForkWork || rows < 2 {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), rows)
}

// forkRows splits [0, n) into workers contiguous blocks and runs body on
// each in its own goroutine, the caller waiting: a share kept on the caller
// would leave the others in its P's run-next slot, which idle Ps steal
// slowly.
func forkRows(n, workers int, body func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelWork runs body(lo, hi) over [0, n), split into contiguous blocks
// across up to GOMAXPROCS goroutines when work reaches ForkWork and inline
// on the caller otherwise. body must be safe to run concurrently on disjoint
// ranges, and for results independent of the worker count it must compute
// each index the same way whatever block it lands in.
func ParallelWork(n, work int, body func(lo, hi int)) {
	if w := forkWorkers(n, work); w > 1 {
		forkRows(n, w, body)
		return
	}
	body(0, n)
}

// ParallelFor is ParallelWork for loops whose per-index cost the caller does
// not know: it fans out from minParallelRows indices up.
func ParallelFor(n int, body func(lo, hi int)) {
	work := 0
	if n >= minParallelRows {
		work = ForkWork
	}
	ParallelWork(n, work, body)
}
