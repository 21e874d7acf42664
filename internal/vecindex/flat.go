package vecindex

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"fairdms/internal/simd"
)

// Flat is the exact Index. Each cluster's vectors sit in one contiguous
// float64 slab, ordered by each vector's distance from the partition's
// pivot (its radius), with the vectors added since the last merge in an
// unsorted tail behind that run. A query scans the tail in full and, of
// the run, only the window of radii that the triangle inequality cannot
// rule out; see search. Queries take a read lock, so concurrent Nearest
// calls — a request's queries, spread over workers by fairds — proceed in
// parallel; Add/Remove/Rebuild serialize briefly.
type Flat struct {
	mu    sync.RWMutex
	dim   int                    // 0 until the first Add/Rebuild fixes it
	parts map[int]*flatPartition // cluster → its vectors
	pos   map[string]flatPos     // id → cluster and slot, for Remove and re-Add

	queries  atomic.Int64
	probed   atomic.Int64
	rejected atomic.Int64
}

// flatPartition is one cluster's vectors, row-major in a single slab so a
// scan walks memory sequentially. Rows [0, run) are the sorted run:
// radii[i], row i's distance from pivot, never decreases with i. Rows
// [run, run+stuck) are vectors whose radius is not finite, which no
// merge places in the run. The rows after them are the tail, the vectors
// added since the last merge.
//
// A row keeps its slot: its position in the slab Flat would hold if it
// appended on Add and filled a removed vector's place with the last one.
// Distance ties go to the lowest slot, so the order rows are stored in
// never shows in an answer.
type flatPartition struct {
	ids   []string  // slot → ID
	vecs  []float64 // len(ids) * dim
	slots []int     // row → slot
	rows  []int     // slot → row
	radii []float64 // len run

	run, stuck int
	pivot      []float64 // nil until the first merge
	pivotN     int       // the partition's size when pivot was chosen
}

// flatPos locates a vector for O(1) removal.
type flatPos struct {
	cluster int
	slot    int
}

// Add merges a partition's tail into its run once the tail holds
// tailMin vectors and 1/tailShare of the run: a query scans at most that
// many vectors beyond its window, and a merge, which moves every row
// behind the first one it inserts, comes once per run/tailShare Adds.
const (
	tailMin   = 32
	tailShare = 32
)

// block is the number of rows a query scans first, around its own radius,
// and then on each side between two narrowings of its window. A side's
// block doubles each time it is scanned, up to maxBlock: on a shape where
// the window is most of the run the query makes few kernel calls, and
// where it is narrow, the first blocks have already found it.
const (
	block    = 32
	maxBlock = 1024
)

// radiusSlack and radiusFloor widen a query's window past what exact
// arithmetic needs, so rounding cannot leave out a vector that ties the
// best. Radii and distances are computed with a relative error of about
// dim × 2⁻⁵³ — the slack covers any dimension below 10⁶ — and an
// underflowed square moves a radius by at most √dim × 2⁻⁵³⁷, far below
// the floor.
const (
	radiusSlack = 1e-9
	radiusFloor = 1e-150
)

// NewFlat returns an empty exact index.
func NewFlat() *Flat {
	return &Flat{parts: make(map[int]*flatPartition), pos: make(map[string]flatPos)}
}

// Add indexes one vector, replacing any previous vector under the same ID.
// The vector joins its partition's tail; the tail is merged into the run
// once it passes tailMin and 1/tailShare of the run.
func (f *Flat) Add(id string, cluster int, vec []float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, err := f.add(id, cluster, vec)
	if err != nil {
		return err
	}
	if len(p.ids)-p.run-p.stuck >= max(tailMin, p.run/tailShare) {
		p.merge(f.dim)
	}
	return nil
}

// add appends a vector to its partition's tail. The caller holds the write
// lock or owns f.
func (f *Flat) add(id string, cluster int, vec []float64) (*flatPartition, error) {
	if f.dim == 0 {
		f.dim = len(vec)
	}
	if len(vec) != f.dim || f.dim == 0 {
		f.rejected.Add(1)
		return nil, dimError(len(vec), f.dim)
	}
	if old, exists := f.pos[id]; exists {
		f.removeLocked(id, old)
	}
	p := f.parts[cluster]
	if p == nil {
		p = &flatPartition{}
		f.parts[cluster] = p
	}
	n := len(p.ids)
	f.pos[id] = flatPos{cluster: cluster, slot: n}
	p.ids = append(p.ids, id)
	p.vecs = append(p.vecs, vec...)
	p.slots = append(p.slots, n)
	p.rows = append(p.rows, n)
	return p, nil
}

// Remove drops the vector with the given ID.
func (f *Flat) Remove(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	loc, ok := f.pos[id]
	if !ok {
		return false
	}
	f.removeLocked(id, loc)
	return true
}

// removeLocked frees a vector's slot, which the last slot's vector takes
// over, and deletes its row. A row of the run is closed up so the run
// stays in order; any other row is refilled from the end of its region.
func (f *Flat) removeLocked(id string, loc flatPos) {
	p := f.parts[loc.cluster]
	last := len(p.ids) - 1
	r := p.rows[loc.slot]
	if loc.slot != last {
		moved := p.rows[last]
		p.rows[loc.slot] = moved
		p.slots[moved] = loc.slot
		p.ids[loc.slot] = p.ids[last]
		f.pos[p.ids[last]] = flatPos{cluster: loc.cluster, slot: loc.slot}
	}
	p.rows = p.rows[:last]
	switch dim := f.dim; {
	case r < p.run:
		copy(p.vecs[r*dim:], p.vecs[(r+1)*dim:])
		copy(p.slots[r:], p.slots[r+1:])
		for i := r; i < last; i++ {
			p.rows[p.slots[i]] = i
		}
		p.radii = slices.Delete(p.radii, r, r+1)
		p.run--
	case r < p.run+p.stuck:
		end := p.run + p.stuck - 1
		p.moveRow(end, r, dim)
		p.moveRow(last, end, dim)
		p.stuck--
	default:
		p.moveRow(last, r, dim)
	}
	p.ids = p.ids[:last]
	p.vecs = p.vecs[:last*f.dim]
	p.slots = p.slots[:last]
	delete(f.pos, id)
	if last == 0 {
		delete(f.parts, loc.cluster)
	}
}

// moveRow copies row from over row to.
func (p *flatPartition) moveRow(from, to, dim int) {
	if from == to {
		return
	}
	copy(p.vecs[to*dim:(to+1)*dim], p.vecs[from*dim:(from+1)*dim])
	p.slots[to] = p.slots[from]
	p.rows[p.slots[to]] = to
}

// radius is v's distance from the pivot.
func (p *flatPartition) radius(v []float64) float64 {
	return math.Sqrt(Dist2(v, p.pivot))
}

// finite reports whether r can be placed in a run.
func finite(r float64) bool { return !math.IsInf(r, 0) && !math.IsNaN(r) }

// merge sorts the tail into the run. A partition that has doubled since
// its pivot was chosen gets a new pivot and is sorted whole instead, so
// the pivot follows the partition's mean as it grows, at a cost that
// stays linear per Add.
func (p *flatPartition) merge(dim int) {
	n := len(p.ids)
	if p.pivot == nil || n >= 2*p.pivotN {
		p.sortAll(dim)
		return
	}
	type tailRow struct {
		r    float64
		slot int
		vec  []float64
	}
	from := p.run + p.stuck
	var sorted, unsortable []tailRow
	vecs := slices.Clone(p.vecs[from*dim:])
	for i := from; i < n; i++ {
		v := vecs[(i-from)*dim : (i-from+1)*dim]
		t := tailRow{r: p.radius(v), slot: p.slots[i], vec: v}
		if finite(t.r) {
			sorted = append(sorted, t)
		} else {
			unsortable = append(unsortable, t)
		}
	}
	slices.SortFunc(sorted, func(a, b tailRow) int { return cmp.Compare(a.r, b.r) })

	// Lay out [run + sorted | stuck | unsortable]: the stuck rows move up
	// first, then the run and the sorted tail merge from the back.
	run := p.run + len(sorted)
	copy(p.vecs[run*dim:], p.vecs[p.run*dim:from*dim])
	copy(p.slots[run:], p.slots[p.run:from])
	put := func(k int, t tailRow) {
		copy(p.vecs[k*dim:(k+1)*dim], t.vec)
		p.slots[k] = t.slot
	}
	for j, t := range unsortable {
		put(run+p.stuck+j, t)
	}
	p.radii = slices.Grow(p.radii, len(sorted))[:run]
	i := p.run // run rows [0, i) are still in place
	for j := len(sorted) - 1; j >= 0; j-- {
		t := sorted[j]
		at := upperBound(p.radii[:i], t.r)
		// Rows [at, i) move up past the j tail rows still to place and t.
		copy(p.vecs[(at+j+1)*dim:(i+j+1)*dim], p.vecs[at*dim:i*dim])
		copy(p.slots[at+j+1:i+j+1], p.slots[at:i])
		copy(p.radii[at+j+1:i+j+1], p.radii[at:i])
		put(at+j, t)
		p.radii[at+j] = t.r
		i = at
	}
	for k := i; k < n; k++ {
		p.rows[p.slots[k]] = k
	}
	p.run, p.stuck = run, p.stuck+len(unsortable)
}

// sortAll chooses a pivot, the mean of the partition's finite vectors, and
// lays the partition out as one sorted run followed by the vectors whose
// radius is not finite.
func (p *flatPartition) sortAll(dim int) {
	n := len(p.ids)
	pivot := make([]float64, dim)
	count := 0
	for i := 0; i < n; i++ {
		v := p.vecs[i*dim : (i+1)*dim]
		if !slices.ContainsFunc(v, func(x float64) bool { return !finite(x) }) {
			for j, x := range v {
				pivot[j] += x
			}
			count++
		}
	}
	for j := range pivot {
		pivot[j] /= float64(count)
		if !finite(pivot[j]) { // no finite vector, or a sum that overflowed
			clear(pivot)
			break
		}
	}
	p.pivot, p.pivotN = pivot, n

	order := make([]int, n)
	radii := make([]float64, n)
	for i := range order {
		order[i], radii[i] = i, p.radius(p.vecs[i*dim:(i+1)*dim])
	}
	slices.SortFunc(order, func(a, b int) int {
		if fa, fb := finite(radii[a]), finite(radii[b]); fa != fb {
			if fa {
				return -1
			}
			return 1
		}
		return cmp.Compare(radii[a], radii[b])
	})
	vecs, slots := make([]float64, n*dim), make([]int, n)
	p.radii = p.radii[:0]
	for k, i := range order {
		copy(vecs[k*dim:(k+1)*dim], p.vecs[i*dim:(i+1)*dim])
		slots[k] = p.slots[i]
		p.rows[slots[k]] = k
		if finite(radii[i]) {
			p.radii = append(p.radii, radii[i])
		}
	}
	p.vecs, p.slots = vecs, slots
	p.run, p.stuck = len(p.radii), n-len(p.radii)
}

// Nearest returns the closest non-excluded vector of the cluster, the
// lowest slot among equals; a NaN or +Inf distance never matches.
func (f *Flat) Nearest(cluster int, q []float64, exclude func(string) bool) (Result, bool) {
	f.queries.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	p := f.parts[cluster]
	if p == nil || len(q) != f.dim {
		return Result{}, false
	}
	s := search{p: p, dim: f.dim, q: q, exclude: exclude, row: -1, d2: math.Inf(1)}
	s.nearest()
	f.probed.Add(int64(s.probed))
	if s.row < 0 {
		return Result{}, false
	}
	return Result{ID: p.ids[s.slot], Dist2: s.d2}, true
}

// search is one query's scan of a partition: the best eligible row so far
// and the number of distances computed.
type search struct {
	p       *flatPartition
	dim     int
	q       []float64
	exclude func(string) bool

	row, slot int     // best row and its slot; row -1 before any
	d2        float64 // best distance, +Inf before any
	probed    int
}

// nearest scans the rows that can hold the answer. For any pivot c,
// ‖q − x‖ ≥ |‖x − c‖ − ‖q − c‖|, so a run row whose radius is further than
// the best distance from the query's radius r_q can neither beat nor tie
// the best. The scan starts with the block of the run around r_q, takes
// the stuck rows and the tail in full, then widens its range of the run a
// block at a time, on the side whose next radius is nearer r_q, until the
// range covers the window [r_q − w, r_q + w]; the window narrows with
// every better vector found, and no block reaches past it. A query whose
// radius is not finite scans every row.
func (s *search) nearest() {
	p := s.p
	n := len(p.ids)
	if p.run == 0 {
		s.scan(0, n)
		return
	}
	rq := p.radius(s.q)
	if !finite(rq) {
		s.scan(0, n)
		return
	}
	lo, _ := slices.BinarySearch(p.radii, rq)
	lo = max(0, min(lo-block/2, p.run-block))
	hi := min(p.run, lo+block)
	s.scan(lo, hi)
	s.scan(p.run, n)
	lb, rb := block, block // the next block on each side
	for {                  // rows [lo, hi) of the run are scanned
		w := float64(math.Sqrt(s.d2)*(1+radiusSlack)) + float64(radiusSlack*rq) + radiusFloor // +Inf before a best
		wlo, whi := rq-w, rq+w
		left := lo > 0 && p.radii[lo-1] >= wlo
		right := hi < p.run && p.radii[hi] <= whi
		switch {
		case left && (!right || rq-p.radii[lo-1] <= p.radii[hi]-rq):
			next := max(0, lo-lb)
			next += lowerBound(p.radii[next:lo], wlo)
			lb = min(2*lb, maxBlock)
			s.scan(next, lo)
			lo = next
		case right:
			next := min(p.run, hi+rb)
			next = hi + upperBound(p.radii[hi:next], whi)
			rb = min(2*rb, maxBlock)
			s.scan(hi, next)
			hi = next
		default:
			return
		}
	}
}

// lowerBound is the number of leading radii below r.
func lowerBound(radii []float64, r float64) int {
	i, j := 0, len(radii)
	for i < j {
		h := int(uint(i+j) >> 1)
		if radii[h] < r {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// upperBound is the number of leading radii at or below r.
func upperBound(radii []float64, r float64) int {
	i, j := 0, len(radii)
	for i < j {
		h := int(uint(i+j) >> 1)
		if radii[h] <= r {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// scan checks rows [a, b). At dim 8, simd.Dist8First skips four vectors at
// a time that are further than the best; its bound is one step past the
// best distance, so a tie still reaches consider's slot test.
func (s *search) scan(a, b int) {
	s.probed += b - a
	if s.dim == 8 {
		q := (*[8]float64)(s.q)
		for b-a >= 4 {
			k := simd.Dist8First(q, s.p.vecs[a*8:b*8], math.Nextafter(s.d2, math.Inf(1)))
			if k < 0 {
				a += (b - a) &^ 3
				break
			}
			s.consider(a + k)
			a += k + 1
		}
	}
	for ; a < b; a++ {
		s.consider(a)
	}
}

// consider makes row i the best if its Dist2 is below the best's, or equal
// with a lower slot, and exclude does not reject it. exclude is asked only
// here, so only of a vector that would become the best.
func (s *search) consider(i int) {
	var d2 float64
	if s.dim == 8 {
		_, d2 = scan8(s.p.vecs, nil, (*[8]float64)(s.q), nil, i, i+1, -1, 0)
	} else {
		d2 = Dist2(s.q, s.p.vecs[i*s.dim:(i+1)*s.dim])
	}
	slot := s.p.slots[i]
	if (d2 < s.d2 || (d2 == s.d2 && s.row >= 0 && slot < s.slot)) &&
		(s.exclude == nil || !s.exclude(s.p.ids[slot])) {
		s.row, s.slot, s.d2 = i, slot, d2
	}
}

// Rebuild atomically replaces the index contents. Duplicate IDs follow
// Add semantics: last write wins. Each partition is built as one sorted
// run.
func (f *Flat) Rebuild(entries []Entry) error {
	fresh := NewFlat()
	for _, e := range entries {
		if _, err := fresh.add(e.ID, e.Cluster, e.Vec); err != nil {
			f.rejected.Add(1)
			return err
		}
	}
	for _, p := range fresh.parts {
		p.sortAll(fresh.dim)
	}
	f.mu.Lock()
	f.dim = fresh.dim
	f.parts = fresh.parts
	f.pos = fresh.pos
	f.mu.Unlock()
	return nil
}

// Len reports the number of indexed vectors.
func (f *Flat) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pos)
}

// Stats snapshots the index counters.
func (f *Flat) Stats() Stats {
	return Stats{
		Size:     f.Len(),
		Queries:  f.queries.Load(),
		Probed:   f.probed.Load(),
		Rejected: f.rejected.Load(),
	}
}
