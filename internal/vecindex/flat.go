package vecindex

import (
	"sync"
	"sync/atomic"
)

// Flat is the exact Index: one contiguous float64 slab per cluster,
// scanned front to back by the calling goroutine (and split across
// goroutines only past 2×ForkElems). Queries take a read lock, so
// concurrent Nearest calls — a request's queries, spread over workers by
// fairds — proceed in parallel; Add/Remove/Rebuild serialize briefly.
type Flat struct {
	mu    sync.RWMutex
	dim   int                    // 0 until the first Add/Rebuild fixes it
	parts map[int]*flatPartition // cluster → slab
	pos   map[string]flatPos     // id → location, for Remove and re-Add

	queries  atomic.Int64
	probed   atomic.Int64
	rejected atomic.Int64
}

// flatPartition is one cluster's vectors, stored row-major in a single
// slab so a scan walks memory sequentially.
type flatPartition struct {
	ids  []string
	vecs []float64 // len(ids) * dim
}

// flatPos locates a vector for O(1) removal.
type flatPos struct {
	cluster int
	slot    int
}

// NewFlat returns an empty exact index.
func NewFlat() *Flat {
	return &Flat{parts: make(map[int]*flatPartition), pos: make(map[string]flatPos)}
}

// Add indexes one vector, replacing any previous vector under the same ID.
func (f *Flat) Add(id string, cluster int, vec []float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dim == 0 {
		f.dim = len(vec)
	}
	if len(vec) != f.dim || f.dim == 0 {
		f.rejected.Add(1)
		return dimError(len(vec), f.dim)
	}
	if old, exists := f.pos[id]; exists {
		f.removeLocked(id, old)
	}
	p := f.parts[cluster]
	if p == nil {
		p = &flatPartition{}
		f.parts[cluster] = p
	}
	f.pos[id] = flatPos{cluster: cluster, slot: len(p.ids)}
	p.ids = append(p.ids, id)
	p.vecs = append(p.vecs, vec...)
	return nil
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

// removeLocked swap-removes a slot from its partition: the last vector
// moves into the vacated slot so the slab stays dense.
func (f *Flat) removeLocked(id string, loc flatPos) {
	p := f.parts[loc.cluster]
	last := len(p.ids) - 1
	if loc.slot != last {
		moved := p.ids[last]
		p.ids[loc.slot] = moved
		copy(p.vecs[loc.slot*f.dim:(loc.slot+1)*f.dim], p.vecs[last*f.dim:(last+1)*f.dim])
		f.pos[moved] = flatPos{cluster: loc.cluster, slot: loc.slot}
	}
	p.ids = p.ids[:last]
	p.vecs = p.vecs[:last*f.dim]
	delete(f.pos, id)
	if last == 0 {
		delete(f.parts, loc.cluster)
	}
}

// Nearest scans the cluster's slab and returns the closest non-excluded
// vector, the lowest slot among equals.
func (f *Flat) Nearest(cluster int, q []float64, exclude func(string) bool) (Result, bool) {
	f.queries.Add(1)
	f.mu.RLock()
	defer f.mu.RUnlock()
	p := f.parts[cluster]
	if p == nil || len(q) != f.dim {
		return Result{}, false
	}
	f.probed.Add(int64(len(p.ids)))
	slot, d2 := scanNearest(p.vecs, p.ids, f.dim, q, exclude)
	if slot < 0 {
		return Result{}, false
	}
	return Result{ID: p.ids[slot], Dist2: d2}, true
}

// Rebuild atomically replaces the index contents. Duplicate IDs follow
// Add semantics: last write wins.
func (f *Flat) Rebuild(entries []Entry) error {
	fresh := NewFlat()
	for _, e := range entries {
		if err := fresh.Add(e.ID, e.Cluster, e.Vec); err != nil {
			f.rejected.Add(1)
			return err
		}
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
