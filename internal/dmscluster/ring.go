// Package dmscluster is the scale-out tier over N dmsd shards: a
// consistent-hash ring partitions documents by content, serving queries
// scatter to every shard and merge (top-k/min for nearest, probability
// reduction for certainty/PDF, apportioned union for lookup), and the
// model zoo replicates to every node so recommend/checkpoint/train stay
// local to whichever shard serves them — the split the FAIR-model
// companion work assumes (small read-heavy registry everywhere, data
// partitioned). Cluster is the embeddable smart client; Router serves
// the same dmsapi /v1 surface over HTTP for non-Go callers
// (cmd/dmsrouter).
//
// Membership is static with active health probing: a dead shard is
// ejected after consecutive failures, ingest routes around it to the
// ring successor, fan-out reads return the survivors' merge with the
// response's Degraded flag set, and recovery re-admits the shard and
// bumps the membership epoch.
package dmscluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the number of virtual nodes per shard on the ring. 128 keeps
// the max/min load ratio within a few percent for small N while the ring
// stays tiny (N*128 entries, binary-searched). It is part of the routing
// function: changing it re-homes stored documents, which
// TestRingOwnersArePinned catches.
const vnodes = 128

// Ring is a consistent-hash ring over shard indices with virtual nodes.
// It is immutable after construction — membership changes in this tier
// are health-state only (static membership), so the document → owner
// mapping never moves while a deployment lives, and a rebalance is an
// explicit re-ingest (see docs/ARCHITECTURE.md, "rebalance caveats").
type Ring struct {
	hashes []uint64 // sorted vnode hashes
	owner  []int    // owner[i] = shard index of hashes[i]
	n      int
}

// NewRing builds a ring over n shards, vnodes virtual nodes each.
func NewRing(n int) *Ring {
	r := &Ring{
		hashes: make([]uint64, 0, n*vnodes),
		owner:  make([]int, 0, n*vnodes),
		n:      n,
	}
	type vn struct {
		h     uint64
		shard int
	}
	all := make([]vn, 0, n*vnodes)
	for shard := 0; shard < n; shard++ {
		for v := 0; v < vnodes; v++ {
			all = append(all, vn{h: hash64(fmt.Sprintf("shard-%d#%d", shard, v)), shard: shard})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].h < all[j].h })
	for _, e := range all {
		r.hashes = append(r.hashes, e.h)
		r.owner = append(r.owner, e.shard)
	}
	return r
}

// N returns the shard count.
func (r *Ring) N() int { return r.n }

// Successors returns the distinct shard indices encountered walking the
// ring clockwise from key's position: the owner first, then each
// fail-open fallback in preference order. Always length N.
func (r *Ring) Successors(key string) []int {
	out := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i, steps := r.find(hash64(key)), 0; len(out) < r.n && steps < len(r.hashes); steps++ {
		if s := r.owner[i]; !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
		i++
		if i == len(r.hashes) {
			i = 0
		}
	}
	return out
}

// find locates the first vnode at or after h, wrapping at the end.
func (r *Ring) find(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		return 0
	}
	return i
}

// hash64 is FNV-64a with a 64-bit avalanche finalizer: stdlib-only,
// stable across processes and platforms — the routing decision must be
// reproducible by any tier. Raw FNV clusters on the short, similar
// vnode labels ("shard-0#0", "shard-0#1", ...), which skews the ring
// badly; the multiply-xorshift finalizer spreads those outputs over the
// full 64-bit range.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ContentKey derives a document's ring key from its payload bytes, so
// routing is a pure function of content: any router instance (or a
// re-sent duplicate) routes the same document to the same shard without
// coordination.
func ContentKey(data []byte, label []float64) string {
	h := fnv.New64a()
	h.Write(data)
	for _, l := range label {
		fmt.Fprintf(h, "|%g", l)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
