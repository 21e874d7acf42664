// Package vecindex provides the in-memory vector index behind fairDS's
// nearest-label reuse (paper §II-A, "efficient lookup by embedding
// indexing"): the second level of the two-level search, after the sample's
// cluster is known. An index mirrors the (document ID, cluster, embedding)
// triples of the labeled store in process, in flat cache-friendly float64
// slabs, one per cluster, and answers a nearest-neighbor query with an
// in-memory scan of the cluster's slab, with no call to the store, local
// or remote.
//
// Flat is the one implementation of the Index interface: exact nearest
// neighbor by one sequential scan of the cluster's slab. fairDS has
// already narrowed the search to one cluster, so a scan over that
// partition is both exact and fast. Callers that wrap or substitute the
// index (a tracing decorator, test doubles) do so through the interface.
//
// Flat supports incremental Add on ingest, Remove, exclusion predicates
// for the Fig. 9 distinct-draw loop, and full Rebuild for the §II-C
// reindex pass. All methods are safe for concurrent use.
//
// Parallelism lives across queries, not inside them: a request brings many
// queries (one per sample), and fairds spreads those over workers, each
// calling Nearest. A query splits its own scan across goroutines only when
// a single slab is past 2×ForkElems. Either way the distance reported for
// a vector is Dist2 of it — a pure function of the query and the vector —
// so answers do not depend on worker counts, and distances from different
// shards of a cluster can be compared and merged exactly.
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
	"runtime"
	"sync"

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
	// Probed counts vectors distance-compared across all queries; Probed /
	// Queries is the mean per-query scan width.
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

// ForkElems is the smallest share of scan work, in float64 elements
// (vectors × dim — what a worker streams, whatever the dimension), worth
// handing to its own goroutine. scanNearest splits a slab only when every
// worker gets at least this much, so a slab below 2×ForkElems is scanned
// by the caller; fairds applies the same measure to a whole request
// (queries × vectors × dim) when it spreads queries over workers.
//
// Chosen from BenchmarkNearestFlat, dim 8, 2 vCPUs (Xeon 2.1 GHz VM),
// go1.24, the AVX2 scan; µs per query, median of six runs, unforked
// (-cpu 1) against a forced 2-worker split (-cpu 2 with this constant
// lowered):
//
//	vectors  elements  unforked  split in 2
//	  1,000     8 Ki      1.4       3.1
//	  4,096    32 Ki      5.8       8.6
//	 10,000    78 Ki       12        15
//	 16,384   128 Ki       21        23
//	 24,576   192 Ki       39        35
//	 32,768   256 Ki       66        50
//	 50,000   391 Ki      123        69
//	100,000   781 Ki      239       164
//
// The split starts to pay between 192 Ki and 256 Ki elements per slab —
// 96 to 128 Ki per worker — where it did for the scalar loop: in cache the
// kernel is 3.3× faster, but past 128 Ki elements (1 MiB) a scan waits on
// memory, and a second core brings a second cache. Starting and joining a
// goroutine costs about what scanning 40 Ki elements in cache does. Across a request's queries
// (fairds.BenchmarkNearestMatches shape, 4,096-vector partitions, same
// method) the break-even did move, to about 512 Ki elements: 4 queries
// (128 Ki elements) 32 → 40 µs, 8 queries 56 → 72 µs, 16 queries 151 →
// 146 µs, 32 queries 327 → 245 µs, 64 queries 522 → 464 µs. The constant
// stays at the slab split's break-even; a request of 256 to 512 Ki
// elements — none of the benchmark's workloads — gives up ~15 µs to its
// fork.
const ForkElems = 128 << 10

// scanNearest finds the closest vector to q in a flat slab of len(ids)
// vectors of the given dim, skipping excluded IDs. It splits the slab
// across goroutines only when each gets at least ForkElems elements. Ties
// break toward the lowest slot, so results are deterministic regardless
// of worker count and scheduling. Returns the winning slot (-1 if none)
// and its squared distance.
func scanNearest(vecs []float64, ids []string, dim int, q []float64, exclude func(string) bool) (int, float64) {
	n := len(ids)
	workers := min(runtime.GOMAXPROCS(0), n*dim/ForkElems)
	if workers < 2 {
		return scanRange(vecs, ids, dim, q, exclude, 0, n)
	}
	type best struct {
		slot  int
		dist2 float64
	}
	results := make([]best, workers)
	chunk := (n + workers - 1) / workers
	// Every share goes to a new goroutine and the caller waits: keeping one
	// share for the caller leaves the other in its P's run-next slot, which
	// idle Ps are slow to steal from (n=50,000: 196 µs against 132 µs).
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot, d2 := scanRange(vecs, ids, dim, q, exclude, w*chunk, min((w+1)*chunk, n))
			results[w] = best{slot: slot, dist2: d2}
		}(w)
	}
	wg.Wait()
	bestSlot, bestD2 := -1, 0.0
	for _, r := range results { // in worker order = slot order, so ties keep the lowest slot
		if r.slot >= 0 && (bestSlot < 0 || r.dist2 < bestD2) {
			bestSlot, bestD2 = r.slot, r.dist2
		}
	}
	return bestSlot, bestD2
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
// [lo, hi) of a slab, behind scanNearest and Dist2.
//
// The distance of one vector is a pure function of (q, v, dim) — the same
// floating-point operations in the same order for every slot, slab size,
// and worker split — because routed and single-node answers
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
