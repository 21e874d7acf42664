package vecindex

// dist8first scans slab, dim-8 vectors stored back to back, in whole
// groups of four, and returns the index of the first vector whose distance
// to q is less than bound, or -1. A trailing group of fewer than four
// vectors is not read. Each distance has scanRange's bits, and the
// comparison is ordered: a NaN distance or bound never qualifies.
//
//go:noescape
func dist8first(q *[8]float64, slab []float64, bound float64) int
