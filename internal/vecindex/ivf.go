package vecindex

import (
	"math"
	"sync"
	"sync/atomic"

	"fairdms/internal/cluster"
)

// IVFConfig tunes an IVF index.
type IVFConfig struct {
	// SplitThreshold is the partition size at which a cluster gets
	// sub-partitioned by a coarse quantizer. Below it, the partition is a
	// single list and queries are exact. Default 512.
	SplitThreshold int
	// NProbe is how many sublists a query scans, closest-centroid first.
	// Larger is more accurate and slower; NProbe >= the sublist count makes
	// the query exact. Default 4.
	NProbe int
	// Seed drives the k-means sub-quantizer fits.
	Seed int64
}

func (c *IVFConfig) defaults() {
	if c.SplitThreshold <= 0 {
		c.SplitThreshold = 512
	}
	if c.NProbe <= 0 {
		c.NProbe = 4
	}
}

// IVF is an inverted-file Index: clusters whose partitions outgrow
// SplitThreshold are sub-partitioned by a k-means coarse quantizer
// (reusing cluster.KMeans), and queries scan only the NProbe sublists
// whose centroids sit closest to the query — widening to the remaining
// lists only when every probed candidate was excluded. The quantizer is
// refit incrementally: whenever a partition doubles since its last fit,
// the next Add re-quantizes it, so list sizes track the data
// distribution without a manual rebuild.
type IVF struct {
	cfg IVFConfig

	mu    sync.RWMutex
	dim   int
	parts map[int]*ivfPartition
	pos   map[string]ivfPos

	queries     atomic.Int64
	probed      atomic.Int64
	listsProbed atomic.Int64
	rejected    atomic.Int64
}

// ivfPartition is one cluster: either a single unquantized list
// (km == nil) or a set of sublists keyed by the coarse quantizer's
// centroids.
type ivfPartition struct {
	km      *cluster.KMeans
	lists   []*flatPartition
	size    int
	fitSize int // partition size at the last quantizer fit
}

// maxLists caps a partition's sublists, so a query tracks the lists it
// has probed in one machine word.
const maxLists = 64

// ivfPos locates a vector for O(1) removal.
type ivfPos struct {
	cluster, list, slot int
}

// NewIVF returns an empty inverted-file index.
func NewIVF(cfg IVFConfig) *IVF {
	cfg.defaults()
	return &IVF{cfg: cfg, parts: make(map[int]*ivfPartition), pos: make(map[string]ivfPos)}
}

// Add indexes one vector, replacing any previous vector under the same ID,
// and re-quantizes the target partition when it has doubled since the last
// fit.
func (v *IVF) Add(id string, clusterID int, vec []float64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.dim == 0 {
		v.dim = len(vec)
	}
	if len(vec) != v.dim || v.dim == 0 {
		v.rejected.Add(1)
		return dimError(len(vec), v.dim)
	}
	if old, exists := v.pos[id]; exists {
		v.removeLocked(id, old)
	}
	p := v.parts[clusterID]
	if p == nil {
		p = &ivfPartition{lists: []*flatPartition{{}}}
		v.parts[clusterID] = p
	}
	list := 0
	if p.km != nil {
		list, _ = p.km.PredictOne(vec)
	}
	lp := p.lists[list]
	v.pos[id] = ivfPos{cluster: clusterID, list: list, slot: len(lp.ids)}
	lp.ids = append(lp.ids, id)
	lp.vecs = append(lp.vecs, vec...)
	p.size++
	if p.size >= v.cfg.SplitThreshold && p.size >= 2*p.fitSize {
		v.refitLocked(clusterID, p)
	}
	return nil
}

// refitLocked re-quantizes one partition: fits a fresh coarse k-means on
// all its vectors and redistributes them into per-centroid sublists.
func (v *IVF) refitLocked(clusterID int, p *ivfPartition) {
	rows := make([][]float64, 0, p.size)
	ids := make([]string, 0, p.size)
	for _, lp := range p.lists {
		for i := range lp.ids {
			rows = append(rows, lp.vecs[i*v.dim:(i+1)*v.dim])
			ids = append(ids, lp.ids[i])
		}
	}
	k := int(math.Sqrt(float64(len(rows))))
	if k < 2 {
		k = 2
	}
	if k > maxLists {
		k = maxLists
	}
	if k > len(rows) {
		k = len(rows)
	}
	km, err := cluster.Fit(rows, cluster.Config{K: k, Seed: v.cfg.Seed + int64(clusterID)})
	if err != nil {
		return // partition stays usable with its current lists
	}
	assign := km.Predict(rows)
	lists := make([]*flatPartition, k)
	for i := range lists {
		lists[i] = &flatPartition{}
	}
	for i, a := range assign {
		lp := lists[a]
		v.pos[ids[i]] = ivfPos{cluster: clusterID, list: a, slot: len(lp.ids)}
		lp.ids = append(lp.ids, ids[i])
		lp.vecs = append(lp.vecs, rows[i]...)
	}
	p.km = km
	p.lists = lists
	p.fitSize = p.size
}

// Remove drops the vector with the given ID.
func (v *IVF) Remove(id string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	loc, ok := v.pos[id]
	if !ok {
		return false
	}
	v.removeLocked(id, loc)
	return true
}

// removeLocked swap-removes a slot from its sublist.
func (v *IVF) removeLocked(id string, loc ivfPos) {
	p := v.parts[loc.cluster]
	lp := p.lists[loc.list]
	last := len(lp.ids) - 1
	if loc.slot != last {
		moved := lp.ids[last]
		lp.ids[loc.slot] = moved
		copy(lp.vecs[loc.slot*v.dim:(loc.slot+1)*v.dim], lp.vecs[last*v.dim:(last+1)*v.dim])
		v.pos[moved] = ivfPos{cluster: loc.cluster, list: loc.list, slot: loc.slot}
	}
	lp.ids = lp.ids[:last]
	lp.vecs = lp.vecs[:last*v.dim]
	delete(v.pos, id)
	p.size--
	if p.size == 0 {
		delete(v.parts, loc.cluster)
	}
}

// Nearest probes the NProbe sublists closest to the query (all lists when
// the partition is unquantized or NProbe covers them), widening to the
// remaining lists only if every probed candidate was excluded — so a
// distinct-draw loop that has consumed whole sublists still finds the true
// next-nearest remainder. Among equal distances the first list scanned
// wins, and within a list the lowest slot.
func (v *IVF) Nearest(clusterID int, q []float64, exclude func(string) bool) (Result, bool) {
	v.queries.Add(1)
	v.mu.RLock()
	defer v.mu.RUnlock()
	p := v.parts[clusterID]
	if p == nil || len(q) != v.dim {
		return Result{}, false
	}
	bestSlot, bestList, bestD2 := -1, -1, 0.0
	scan := func(li int) {
		lp := p.lists[li]
		if len(lp.ids) == 0 {
			return
		}
		v.listsProbed.Add(1)
		v.probed.Add(int64(len(lp.ids)))
		slot, d2 := scanNearest(lp.vecs, lp.ids, v.dim, q, exclude)
		if slot >= 0 && (bestSlot < 0 || d2 < bestD2) {
			bestSlot, bestList, bestD2 = slot, li, d2
		}
	}
	// Probe the NProbe lists whose centroids sit closest, closest first;
	// picking them one minimum at a time needs no per-query allocation.
	var probed uint64 // bit li set once list li was scanned; len(p.lists) <= maxLists
	if p.km != nil && v.cfg.NProbe < len(p.lists) {
		var d2c [maxLists]float64
		for i, c := range p.km.Centers {
			d2c[i] = Dist2(q, c)
		}
		for range v.cfg.NProbe {
			next := -1
			for li := range p.lists {
				if probed&(1<<li) == 0 && (next < 0 || d2c[li] < d2c[next]) {
					next = li
				}
			}
			probed |= 1 << next
			scan(next)
		}
	}
	// Everything else — the whole partition when the probe is exact, the
	// unprobed remainder when every probed candidate was excluded or the
	// probed lists were empty — is scanned in list order, so a widened
	// answer is the exact nearest of what is left.
	if bestSlot < 0 {
		for li := range p.lists {
			if probed&(1<<li) == 0 {
				scan(li)
			}
		}
	}
	if bestSlot < 0 {
		return Result{}, false
	}
	return Result{ID: p.lists[bestList].ids[bestSlot], Dist2: bestD2}, true
}

// Rebuild atomically replaces the index contents, quantizing oversized
// partitions up front.
func (v *IVF) Rebuild(entries []Entry) error {
	fresh := NewIVF(v.cfg)
	for _, e := range entries {
		if err := fresh.Add(e.ID, e.Cluster, e.Vec); err != nil {
			v.rejected.Add(1)
			return err
		}
	}
	v.mu.Lock()
	v.dim = fresh.dim
	v.parts = fresh.parts
	v.pos = fresh.pos
	v.mu.Unlock()
	return nil
}

// Len reports the number of indexed vectors.
func (v *IVF) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.pos)
}

// Stats snapshots the index counters.
func (v *IVF) Stats() Stats {
	return Stats{
		Size:        v.Len(),
		Queries:     v.queries.Load(),
		Probed:      v.probed.Load(),
		ListsProbed: v.listsProbed.Load(),
		Rejected:    v.rejected.Load(),
	}
}
