package vecindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// slotModel mirrors an index's slots: an Add appends to its cluster, and
// the cluster's last vector fills a removed one's place. bruteNearest over
// a cluster's entries, in this order, breaks ties as the index must.
type slotModel struct {
	parts map[int][]Entry
	where map[string]int // id → cluster
}

func newSlotModel() *slotModel {
	return &slotModel{parts: make(map[int][]Entry), where: make(map[string]int)}
}

func (m *slotModel) add(e Entry) {
	m.remove(e.ID)
	m.parts[e.Cluster] = append(m.parts[e.Cluster], e)
	m.where[e.ID] = e.Cluster
}

func (m *slotModel) remove(id string) bool {
	k, ok := m.where[id]
	if !ok {
		return false
	}
	part := m.parts[k]
	i := slices.IndexFunc(part, func(e Entry) bool { return e.ID == id })
	part[i] = part[len(part)-1]
	m.parts[k] = part[:len(part)-1]
	delete(m.where, id)
	return true
}

// entries lists every cluster's entries in slot order: a Rebuild from it
// gives each vector the slot it has.
func (m *slotModel) entries() []Entry {
	var out []Entry
	for _, part := range m.parts {
		out = append(out, part...)
	}
	return out
}

// blobs draws the centres of a clustered partition: n points spread far
// from each other, and so from the partition's mean.
func blobs(rng *rand.Rand, n, dim int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = randVec(rng, dim)
		for j := range out[i] {
			out[i][j] *= 20
		}
	}
	return out
}

// blobVec draws a vector around one of the centres; with probability
// nonFinite one coordinate is NaN, ±Inf, or large enough that its square
// overflows.
func blobVec(rng *rand.Rand, centres [][]float64, nonFinite float64) []float64 {
	c := centres[rng.Intn(len(centres))]
	v := make([]float64, len(c))
	for j := range v {
		v[j] = c[j] + rng.NormFloat64()
	}
	if rng.Float64() < nonFinite {
		v[rng.Intn(len(v))] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}[rng.Intn(5)]
	}
	return v
}

// checkLayout holds every partition to its invariants: rows and slots are
// inverse, the run is in radius order with the radii it records, the
// stuck rows' radii are not finite, and pos finds every ID.
func checkLayout(t *testing.T, f *Flat) {
	t.Helper()
	n := 0
	for k, p := range f.parts {
		n += len(p.ids)
		if len(p.vecs) != len(p.ids)*f.dim || len(p.slots) != len(p.ids) || len(p.rows) != len(p.ids) ||
			len(p.radii) != p.run || p.run+p.stuck > len(p.ids) || len(p.ids) == 0 {
			t.Fatalf("cluster %d: %d ids, %d elements, %d slots, %d rows, %d radii, run %d, stuck %d",
				k, len(p.ids), len(p.vecs), len(p.slots), len(p.rows), len(p.radii), p.run, p.stuck)
		}
		for row, slot := range p.slots {
			if p.rows[slot] != row {
				t.Fatalf("cluster %d: row %d has slot %d, which maps to row %d", k, row, slot, p.rows[slot])
			}
			if loc := f.pos[p.ids[slot]]; loc.cluster != k || loc.slot != slot {
				t.Fatalf("cluster %d: %s at slot %d, pos says %+v", k, p.ids[slot], slot, loc)
			}
			v := p.vecs[row*f.dim : (row+1)*f.dim]
			switch {
			case row < p.run:
				if r := p.radius(v); math.Float64bits(r) != math.Float64bits(p.radii[row]) ||
					(row > 0 && p.radii[row-1] > r) {
					t.Fatalf("cluster %d: run row %d radius %g, recorded %g", k, row, r, p.radii[row])
				}
			case row < p.run+p.stuck:
				if finite(p.radius(v)) {
					t.Fatalf("cluster %d: stuck row %d has a finite radius", k, row)
				}
			}
		}
	}
	if n != len(f.pos) {
		t.Fatalf("%d rows, %d ids", n, len(f.pos))
	}
}

// TestRadiusWindowMatchesBruteForce holds Nearest to the filter-first
// brute-force scan, to the bit, on clustered partitions of dims 1 to 19
// built by Adds, Removes and re-Adds interleaved across the tail merges,
// with exact twins and near-ties of the answer planted on both sides of
// the window's edge, non-finite coordinates in vectors and queries, and
// exclusion sets of every density.
func TestRadiusWindowMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{8, 8, 8, 8}
	for dim := 1; dim <= 19; dim++ {
		dims = append(dims, dim)
	}
	for trial, dim := range dims {
		idx, m := NewFlat(), newSlotModel()
		const clusters = 3
		centres := make([][][]float64, clusters)
		for k := range centres {
			centres[k] = blobs(rng, 1+rng.Intn(6), dim)
		}
		nonFinite := []float64{0, 0.01, 0.1}[trial%3]
		next := 0
		add := func(e Entry) {
			if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
				t.Fatal(err)
			}
			m.add(e)
		}
		query := func(k int, q []float64) {
			t.Helper()
			excluded := make(map[string]bool)
			density := []float64{0, 0, 0.1, 0.5, 0.9, 0.99, 1}[rng.Intn(7)]
			for _, e := range m.parts[k] {
				if rng.Float64() < density {
					excluded[e.ID] = true
				}
			}
			want, wok := bruteNearest(m.parts[k], k, q, excluded)
			got, ok := idx.Nearest(k, q, func(id string) bool { return excluded[id] })
			if ok != wok || (ok && (got.ID != want.ID || math.Float64bits(got.Dist2) != math.Float64bits(want.Dist2))) {
				t.Fatalf("trial %d dim %d cluster %d (%d vectors) density %g: index (%v, %x, %v), brute (%v, %x, %v)",
					trial, dim, k, len(m.parts[k]), density, got.ID, got.Dist2, ok, want.ID, want.Dist2, wok)
			}
		}
		// far holds queries next to a vector whose radius overflows: it is
		// never in the run, yet it is their answer.
		type farQuery struct {
			k int
			q []float64
		}
		var far []farQuery
		for step := 0; step < 900; step++ {
			k := rng.Intn(clusters)
			switch op := rng.Intn(20); {
			case op < 12: // a new vector
				add(Entry{ID: fmt.Sprintf("v%d", next), Cluster: k, Vec: blobVec(rng, centres[k], nonFinite)})
				next++
			case op < 14 && next > 0: // a Remove, present or not
				id := fmt.Sprintf("v%d", rng.Intn(next))
				if got, want := idx.Remove(id), m.remove(id); got != want {
					t.Fatalf("Remove(%s) = %v, want %v", id, got, want)
				}
			case op < 16 && next > 0: // a re-Add, perhaps to another cluster
				add(Entry{ID: fmt.Sprintf("v%d", rng.Intn(next)), Cluster: k, Vec: blobVec(rng, centres[k], nonFinite)})
			case op == 16 && step%100 == 0:
				if err := idx.Rebuild(m.entries()); err != nil {
					t.Fatal(err)
				}
			case op == 17 && nonFinite > 0:
				v := blobVec(rng, centres[k], 0)
				j := rng.Intn(dim)
				v[j] = 1.5e154 // its square overflows
				add(Entry{ID: fmt.Sprintf("v%d", next), Cluster: k, Vec: v})
				next++
				q := slices.Clone(v)
				q[j] = 1.3e154 // its square does not
				far = append(far, farQuery{k, q})
			case op == 18 && len(far) > 0:
				fq := far[rng.Intn(len(far))]
				query(fq.k, fq.q)
			default: // a query, then again with near-ties of its answer planted
				q := blobVec(rng, centres[k], nonFinite/4)
				if part := m.parts[k]; len(part) > 0 && rng.Intn(3) == 0 {
					q = slices.Clone(part[rng.Intn(len(part))].Vec) // an exact match
				}
				query(k, q)
				best, ok := bruteNearest(m.parts[k], k, q, nil)
				if !ok {
					continue
				}
				x := m.parts[k][slices.IndexFunc(m.parts[k], func(e Entry) bool { return e.ID == best.ID })].Vec
				for _, scale := range []float64{1, -1, 1 - 0x1p-52, 1 + 0x1p-52, -1 - 0x1p-52} {
					v := make([]float64, dim) // q + scale·(x − q): a twin, a mirror, and rounding either way
					for j := range v {
						v[j] = q[j] + float64(scale*(x[j]-q[j]))
					}
					add(Entry{ID: fmt.Sprintf("v%d", next), Cluster: k, Vec: v})
					next++
				}
				query(k, q)
			}
			if step%8 == 0 {
				checkLayout(t, idx)
			}
		}
		checkLayout(t, idx)
	}
}

// TestWindowPrunesClusteredPartitions checks that the window pays: on a
// clustered partition, a query computes a small share of its distances.
func TestWindowPrunesClusteredPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const n, queries = 4000, 200
	centres := blobs(rng, 16, 8)
	idx := NewFlat()
	var entries []Entry
	for i := 0; i < n; i++ {
		e := Entry{ID: fmt.Sprintf("v%d", i), Cluster: 0, Vec: blobVec(rng, centres, 0)}
		if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	before := idx.Stats().Probed
	for i := 0; i < queries; i++ {
		q := blobVec(rng, centres, 0)
		want, _ := bruteNearest(entries, 0, q, nil)
		if got, ok := idx.Nearest(0, q, nil); !ok || got != want {
			t.Fatalf("query %d: index (%v, %v), brute %v", i, got, ok, want)
		}
	}
	if probed := idx.Stats().Probed - before; probed > n*queries/8 {
		t.Fatalf("computed %d distances per query over %d vectors", probed/queries, n)
	}
}
