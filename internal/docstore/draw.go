package docstore

// The seeded draw. "Draw n of a set uniformly without replacement" is
// defined as "keep the n members of lowest (DrawRank(seed, id), id)": a
// seeded hash of the ID stands in for a shuffled position, so nobody has
// to list the set to draw from it. The rule is decomposable — the n lowest
// of a union are among the n lowest of each part — which is why a lock
// stripe, a whole collection and a router merging several stores' draws
// all apply the same function and agree, whatever the map order, stripe
// count, insertion order or replay history.
//
// A lock stripe keeps a draw slab for each (hash-indexed field, key, seed)
// it has drawn from: the bucket's members' ranks under the seed, in a
// []uint64 beside the bucket's ID slice. The first draw under a seed
// builds it, every write keeps it aligned, and later draws under that seed
// read the ranks instead of re-hashing the bucket's IDs. fairDS draws each
// cluster under one seed per lookup configuration, so a lookup's draw costs
// one comparison per member. A stripe holds at most maxDrawSlabs slabs.

// DrawRank is the rank SampleIDs orders a document by: a seeded 64-bit mix
// of the ID bytes (FNV-1a from a seed-derived state, murmur3 finaliser).
// Pure, so any tier holding the seed can recompute it to merge draws.
func DrawRank(seed int64, id string) uint64 {
	return rankOf(drawState(seed), id)
}

// drawState spreads the seed over the 64-bit hash state, so that adjacent
// seeds (fairDS draws cluster k with seed+k) give unrelated rankings.
func drawState(seed int64) uint64 {
	return mix64(uint64(seed) + 0x9e3779b97f4a7c15)
}

func rankOf(state uint64, id string) uint64 {
	h := state
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return mix64(h)
}

func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ranked is one candidate of a draw.
type ranked struct {
	rank uint64
	id   string
}

func (a ranked) less(b ranked) bool {
	return a.rank < b.rank || (a.rank == b.rank && a.id < b.id)
}

// lowest keeps the n lowest-ranked of the candidates offered to it in
// O(n) space: a plain slice until it holds n, a max-heap from then on, so
// a candidate that does not displace the current worst costs one
// comparison, plus one hash when its rank is not yet known (offer).
type lowest struct {
	n     int
	state uint64
	kept  []ranked
}

func newLowest(n int, seed int64) lowest {
	return lowest{n: n, state: drawState(seed)}
}

// mayTake reports whether a candidate of rank r could enter the selection,
// before its ID is looked at.
func (l *lowest) mayTake(r uint64) bool {
	return len(l.kept) < l.n || r <= l.kept[0].rank
}

func (l *lowest) offer(id string) {
	l.add(ranked{rank: rankOf(l.state, id), id: id})
}

func (l *lowest) add(e ranked) {
	if len(l.kept) < l.n {
		l.kept = append(l.kept, e)
		if len(l.kept) == l.n {
			for i := l.n/2 - 1; i >= 0; i-- {
				l.siftDown(i)
			}
		}
		return
	}
	if e.less(l.kept[0]) {
		l.kept[0] = e
		l.siftDown(0)
	}
}

func (l *lowest) siftDown(i int) {
	h := l.kept
	for {
		big := i
		if c := 2*i + 1; c < len(h) && h[big].less(h[c]) {
			big = c
		}
		if c := 2*i + 2; c < len(h) && h[big].less(h[c]) {
			big = c
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// ids returns the kept IDs sorted by ID.
func (l *lowest) ids() []string {
	out := make([]string, len(l.kept))
	for i, e := range l.kept {
		out[i] = e.id
	}
	sortIDs(out)
	return out
}
