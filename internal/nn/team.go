package nn

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// team is the goroutines that run one Fit's phases: the caller and the
// helpers the fit took from the process's budget when it started. A phase
// is a number of items — a step's blocks, the ranges of its update, the
// chunks of a validation pass — that the members take one at a time until
// none is left; run returns when every item is done. The helpers live for
// the whole fit, so a step costs two hand-offs instead of two goroutine
// starts. A member that is late, or does not get a core, holds nothing up:
// the caller takes the items it does not.
type team struct {
	helpers []*parker
	caller  *parker // where the caller waits for the items in other hands

	// The phase in flight: its body, and one word holding its sequence
	// number, its item count and the next item to take, so that taking an
	// item is one compare-and-swap on the phase the taker read.
	body  func(i int)
	claim atomic.Uint64
	done  atomic.Int32 // items of the phase finished
	exit  atomic.Bool

	failed atomic.Pointer[failure]
	exited sync.WaitGroup
}

// failure is the first panic an item raised, carried to the caller.
type failure struct{ value any }

// helpersInUse counts the helpers every Fit in the process holds. A fit
// takes what is left of GOMAXPROCS−1 when it starts, so two fits at once
// share the cores rather than spin against each other.
var helpersInUse atomic.Int32

// newTeam returns a team of at most size members: the caller and up to
// size−1 helpers, as many as the budget has free (possibly none).
func newTeam(size int) *team {
	t := &team{caller: newParker()}
	t.helpers = make([]*parker, takeHelpers(size-1))
	t.exited.Add(len(t.helpers))
	for i := range t.helpers {
		t.helpers[i] = newParker()
		go t.help(t.helpers[i])
	}
	return t
}

// takeHelpers reserves up to want helpers from the budget and returns how
// many it got.
func takeHelpers(want int) int {
	for {
		used := helpersInUse.Load()
		n := min(want, runtime.GOMAXPROCS(0)-1-int(used))
		if n <= 0 {
			return 0
		}
		if helpersInUse.CompareAndSwap(used, used+int32(n)) {
			return n
		}
	}
}

// size is the number of members, the caller included.
func (t *team) size() int { return 1 + len(t.helpers) }

// The claim word: a 16-bit phase sequence number, then the item count and
// the next item, 24 bits each.
const maxItems = 1<<24 - 1

func packClaim(seq uint16, items, next int) uint64 {
	return uint64(seq)<<48 | uint64(items)<<24 | uint64(next)
}

func unpackClaim(c uint64) (seq uint16, items, next int) {
	return uint16(c >> 48), int(c>>24) & maxItems, int(c) & maxItems
}

// run runs body(i) for every item i in [0, items) on the team and returns
// once all are done. A panic in any item is raised again here, on the
// caller, after the join, so the caller's recovery sees it and no helper is
// left inside the phase.
func (t *team) run(items int, body func(i int)) {
	if len(t.helpers) == 0 {
		for i := range items {
			body(i)
		}
		return
	}
	if items > maxItems {
		panic(fmt.Sprintf("nn: a phase of %d items", items))
	}
	seq, _, _ := unpackClaim(t.claim.Load())
	t.body = body
	t.done.Store(0)
	t.claim.Store(packClaim(seq+1, items, 0))
	for _, h := range t.helpers {
		h.wake()
	}
	t.work()
	t.caller.wait(func() bool { return t.done.Load() == int32(items) })
	if f := t.failed.Swap(nil); f != nil {
		panic(f.value)
	}
}

// work takes items of the phase in flight until none is left.
func (t *team) work() {
	for {
		c := t.claim.Load()
		_, items, next := unpackClaim(c)
		if next >= items {
			return
		}
		if !t.claim.CompareAndSwap(c, c+1) {
			continue
		}
		t.do(next)
		if t.done.Add(1) == int32(items) {
			t.caller.wake()
		}
	}
}

// do runs one item, keeping the phase's first panic.
func (t *team) do(i int) {
	defer func() {
		if r := recover(); r != nil {
			t.failed.CompareAndSwap(nil, &failure{r})
		}
	}()
	t.body(i)
}

// help is a helper's loop: wait for a phase, take its items, repeat.
func (t *team) help(p *parker) {
	defer t.exited.Done()
	var seen uint16
	for {
		p.wait(func() bool {
			seq, _, _ := unpackClaim(t.claim.Load())
			return seq != seen
		})
		// Read the phase before exit: close stores exit before its own
		// phase number, so a helper that sees that number also sees exit.
		// The other order could read exit false for an earlier phase, then
		// close's number, and wait for a phase that never comes.
		seen, _, _ = unpackClaim(t.claim.Load())
		if t.exit.Load() {
			return
		}
		t.work()
	}
}

// close ends the helpers, waits for them to exit and returns them to the
// budget. Fit defers it, so it also runs when a phase's panic unwinds.
func (t *team) close() {
	if len(t.helpers) == 0 {
		return
	}
	t.exit.Store(true)
	seq, _, _ := unpackClaim(t.claim.Load())
	t.claim.Store(packClaim(seq+1, 0, 0))
	for _, h := range t.helpers {
		h.wake()
	}
	t.exited.Wait()
	helpersInUse.Add(-int32(len(t.helpers)))
}

// spinFor is how long a member waiting for a phase or a join spins before it
// parks. Measured over a BraggNN fine-tune's hand-offs on a 2-vCPU host,
// half the waits end within 4 µs and 95 % within 90 µs, the rest being a
// member that still has a block to finish while the other has none (up to
// about 0.2 ms); waking a parked goroutine costs about 50 µs there. So a
// wait spins through the common gaps and parks through the long ones.
const spinFor = 100 * time.Microsecond

// parker is a goroutine's bounded spin and its parking place.
type parker struct {
	asleep atomic.Bool
	token  chan struct{} // the wake-up of a parked goroutine; capacity 1
}

func newParker() *parker { return &parker{token: make(chan struct{}, 1)} }

// wait returns once ready does: it spins for spinFor, yielding its core to
// any goroutine that wants it (another fit's, a request's, or the member it
// waits for), then parks until wake. Whoever makes ready true calls wake
// after. A wake meant for an earlier wait can arrive late, so a woken
// goroutine checks ready again.
func (p *parker) wait(ready func() bool) {
	start := time.Now()
	for !ready() {
		if time.Since(start) < spinFor {
			runtime.Gosched()
			continue
		}
		p.asleep.Store(true)
		if ready() && p.asleep.CompareAndSwap(true, false) {
			return
		}
		<-p.token // not ready, or a wake already claimed this park
	}
}

// wake releases the goroutine parked in wait, if it is parked.
func (p *parker) wake() {
	if p.asleep.CompareAndSwap(true, false) {
		p.token <- struct{}{}
	}
}
