// Package vecindex provides the in-memory vector index behind fairDS's
// nearest-label reuse (paper §II-A, "efficient lookup by embedding
// indexing"): the second level of the two-level search, after the sample's
// cluster is known. An index mirrors the (document ID, cluster, embedding)
// triples of the labeled store in process, in flat cache-friendly float64
// slabs, one per cluster, and answers a nearest-neighbor query with an
// in-memory scan of the cluster's slab, with no call to the store, local
// or remote.
//
// Flat is the one implementation of the Index interface, and it is exact.
// Each cluster's slab is kept in radius order: sorted by each vector's
// distance from the partition's pivot, with the vectors added since the
// last merge in an unsorted tail. By the triangle inequality a vector
// whose radius differs from the query's by more than the best distance so
// far cannot be nearer, so a query scans the tail and only the window of
// the sorted run around its own radius, narrowing the window as it finds
// nearer vectors. Callers that wrap or substitute the index (a tracing
// decorator, test doubles) do so through the interface.
//
// Flat supports incremental Add on ingest, Remove, exclusion predicates
// for the Fig. 9 distinct-draw loop, and full Rebuild for the §II-C
// reindex pass. All methods are safe for concurrent use.
//
// A query never forks; concurrent requests call Nearest on their own
// goroutines. Every distance a scan computes is Dist2 of the query and the
// vector — a pure function of the two — and ties go to the lowest slot
// whatever order the rows are stored in, so answers do not depend on
// GOMAXPROCS, merges or the window, and distances from different shards of
// a cluster can be compared and merged exactly.
//
// A dim-8 scan — the served embedder's width — checks four vectors at a
// time with simd.Dist8First, which runs in AVX2 where the CPU has it and
// computes each distance with Dist2's operations in Dist2's order either
// way. Which path runs changes speed, never an answer: a shard without AVX2
// returns the same bits.
package vecindex

import (
	"errors"
	"fmt"

	"fairdms/internal/simd"
)

// Entry is one indexed vector: the backing document's ID, its coarse
// cluster (the fairDS k-means assignment), and its embedding.
type Entry struct {
	ID      string
	Cluster int
	Vec     []float64
}

// Result is a nearest-neighbor answer: the matched document ID and the
// squared Euclidean distance to the query.
type Result struct {
	ID    string
	Dist2 float64
}

// Stats snapshots an index's counters. Counters accumulate across the
// index's lifetime (Rebuild resets Size but not the counters).
type Stats struct {
	// Size is the number of vectors currently indexed.
	Size int `json:"size"`
	// Queries counts Nearest calls.
	Queries int64 `json:"queries"`
	// Probed counts the distances computed across all queries: a query's
	// tail and the rows of its radius window, not its whole partition.
	// Probed / Queries is the mean per-query scan width.
	Probed int64 `json:"probed"`
	// Rejected counts Add calls refused for a dimension mismatch.
	Rejected int64 `json:"rejected"`
}

// Index is an incrementally maintained per-cluster nearest-neighbor index
// over embedding vectors. Implementations are safe for concurrent use.
type Index interface {
	// Add indexes one vector under its cluster. All vectors in an index
	// must share one dimensionality (fixed by the first Add or Rebuild);
	// a mismatch returns ErrDimMismatch. Re-adding an existing ID replaces
	// its vector and cluster.
	Add(id string, cluster int, vec []float64) error
	// Remove drops the vector with the given ID, reporting whether it was
	// present.
	Remove(id string) bool
	// Nearest returns the closest indexed vector to q within the given
	// cluster, skipping IDs for which exclude returns true (nil excludes
	// nothing). ok is false when the cluster holds no eligible vectors.
	Nearest(cluster int, q []float64, exclude func(id string) bool) (res Result, ok bool)
	// Rebuild atomically replaces the entire index contents — the §II-C
	// reindex pass, where embeddings and cluster assignments are refreshed
	// together.
	Rebuild(entries []Entry) error
	// Len reports the number of indexed vectors.
	Len() int
	// Stats snapshots the index counters.
	Stats() Stats
}

// ErrDimMismatch is returned by Add when a vector's length disagrees with
// the index's established dimensionality — in fairDS terms, a corrupt
// stored embedding.
var ErrDimMismatch = errors.New("vecindex: vector dimension mismatch")

// dimError wraps ErrDimMismatch with the observed lengths.
func dimError(got, want int) error {
	return fmt.Errorf("%w: got %d, index holds %d-dimensional vectors", ErrDimMismatch, got, want)
}

// Dist2 is the squared Euclidean distance every index scan computes for
// one vector, exported so the brute-force oracles that tests hold an index
// to (here and in fairds) compute the same bits. It is a pure function of
// (q, v): see scanRange. len(v) must equal len(q).
func Dist2(q, v []float64) float64 {
	_, d2 := scanRange(v[:len(q)], nil, len(q), q, nil, 0, 1)
	return d2
}

// scanRange is the one distance kernel: the sequential scan of slots
// [lo, hi) of a slab, behind Dist2.
//
// The distance of one vector is a pure function of (q, v, dim) — the same
// floating-point operations in the same order for every slot, slab size,
// and scan order — because routed and single-node answers
// are compared, and merged, by exact distance. Squared differences go to
// four running sums, element j of the largest multiple-of-four prefix to
// sum j mod 4 and the up-to-three remaining elements to sum 0, combined as
// (s0+s1)+(s2+s3); scan8 is that order unrolled for dim 8. The float64
// conversions forbid fusing a product into the following add, which would
// otherwise be the compiler's choice per call site and architecture.
//
// exclude is asked only of a vector that would become the new best, so
// the callback stays off the per-vector path; the winner is the same as
// filtering first.
//
// A dim-8 scan goes to scanDim8, which gives scan8's answer, asks exclude
// the same questions, and reports the same bits.
func scanRange(vecs []float64, ids []string, dim int, q []float64, exclude func(string) bool, lo, hi int) (int, float64) {
	if dim == 8 {
		return scanDim8(vecs, ids, (*[8]float64)(q), exclude, lo, hi)
	}
	bestSlot, bestD2 := -1, 0.0
	slab := vecs[lo*dim : hi*dim]
	for i := lo; i < hi; i, slab = i+1, slab[dim:] {
		v := slab[:len(q)]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(q); j += 4 {
			d0, d1, d2, d3 := q[j]-v[j], q[j+1]-v[j+1], q[j+2]-v[j+2], q[j+3]-v[j+3]
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		for ; j < len(q); j++ {
			d := q[j] - v[j]
			s0 += float64(d * d)
		}
		dist2 := (s0 + s1) + (s2 + s3)
		if (bestSlot < 0 || dist2 < bestD2) && (exclude == nil || !exclude(ids[i])) {
			bestSlot, bestD2 = i, dist2
		}
	}
	return bestSlot, bestD2
}

// scan8 is scanRange's dim-8 loop, one vector at a time, continuing from a
// best already found (bestSlot -1: none yet). It is scanDim8's step for a
// candidate and the scan its tests hold scanDim8 to.
func scan8(vecs []float64, ids []string, q *[8]float64, exclude func(string) bool, lo, hi, bestSlot int, bestD2 float64) (int, float64) {
	q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
	slab := vecs[lo*8 : hi*8]
	for i := lo; len(slab) >= 8; i, slab = i+1, slab[8:] {
		v := (*[8]float64)(slab)
		d0, d1, d2, d3 := q0-v[0], q1-v[1], q2-v[2], q3-v[3]
		d4, d5, d6, d7 := q4-v[4], q5-v[5], q6-v[6], q7-v[7]
		s0 := float64(d0*d0) + float64(d4*d4)
		s1 := float64(d1*d1) + float64(d5*d5)
		s2 := float64(d2*d2) + float64(d6*d6)
		s3 := float64(d3*d3) + float64(d7*d7)
		dist2 := (s0 + s1) + (s2 + s3)
		if (bestSlot < 0 || dist2 < bestD2) && (exclude == nil || !exclude(ids[i])) {
			bestSlot, bestD2 = i, dist2
		}
	}
	return bestSlot, bestD2
}

// scanDim8 drives simd.Dist8First over slots [lo, hi). Until a first
// eligible vector is found, and for a tail of fewer than four, it runs
// scan8. After that, Dist8First checks four vectors at a time and stops at
// the first one strictly nearer than the best; that vector goes through
// scan8 — same bits, same question to exclude — and the kernel resumes at
// the next slot. So exclude is asked about the same vectors, in the same
// order, as by scan8 alone.
func scanDim8(vecs []float64, ids []string, q *[8]float64, exclude func(string) bool, lo, hi int) (int, float64) {
	bestSlot, bestD2 := -1, 0.0
	i := lo
	for hi-i >= 4 {
		if bestSlot >= 0 {
			k := simd.Dist8First(q, vecs[i*8:hi*8], bestD2)
			if k < 0 { // no whole group of four holds a nearer vector
				i += (hi - i) &^ 3
				break
			}
			i += k
		}
		bestSlot, bestD2 = scan8(vecs, ids, q, exclude, i, i+1, bestSlot, bestD2)
		i++
	}
	return scan8(vecs, ids, q, exclude, i, hi, bestSlot, bestD2)
}
