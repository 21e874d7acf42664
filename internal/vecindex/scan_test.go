package vecindex

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refDist2 spells out the summation order scanRange documents, one
// element at a time: element j of the largest multiple-of-four prefix goes
// to sum j mod 4, the rest to sum 0, and the sums combine pairwise.
func refDist2(q, v []float64) float64 {
	var s [4]float64
	body := len(q) - len(q)%4
	for j := range q {
		d := q[j] - v[j]
		sq := d * d
		if j < body {
			s[j%4] += sq
		} else {
			s[0] += sq
		}
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// withProcs runs f at the given GOMAXPROCS and restores the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

func TestDist2FollowsTheDocumentedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 19; dim++ {
		for trial := 0; trial < 50; trial++ {
			q, v := randVec(rng, dim), randVec(rng, dim)
			if got, want := Dist2(q, v), refDist2(q, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: Dist2 = %x, documented order gives %x", dim, got, want)
			}
		}
	}
}

// TestDistanceIsAPureFunctionOfTheVector is the contract the cluster's
// exact merge rests on: one vector's Dist2 has the same bits whatever its
// slot, however large its partition (one vector to 20,167–43,693 of
// them) and at any GOMAXPROCS.
func TestDistanceIsAPureFunctionOfTheVector(t *testing.T) {
	for _, dim := range []int{8, 6, 13} {
		rng := rand.New(rand.NewSource(int64(dim)))
		target, q := randVec(rng, dim), randVec(rng, dim)
		want := math.Float64bits(Dist2(q, target))
		// Fillers sit ~100 away along the first axis, so target always wins.
		filler := func() []float64 {
			v := randVec(rng, dim)
			v[0] += 100
			return v
		}
		large := map[int]int{8: 32771, 6: 43693, 13: 20167}[dim]
		for _, n := range []int{1, 2, 7, 3000, large} {
			for _, slot := range []int{0, n / 2, n - 1} {
				for name, idx := range testIndexes() {
					for i := 0; i < n; i++ {
						id, vec := fmt.Sprintf("filler-%d", i), filler()
						if i == slot {
							id, vec = "target", target
						}
						if err := idx.Add(id, 0, vec); err != nil {
							t.Fatal(err)
						}
					}
					for _, procs := range []int{1, 4} {
						withProcs(procs, func() {
							got, ok := idx.Nearest(0, q, nil)
							if !ok || got.ID != "target" || math.Float64bits(got.Dist2) != want {
								t.Fatalf("%s dim=%d n=%d slot=%d procs=%d: got (%v, %x), want (target, %x)",
									name, dim, n, slot, procs, got.ID, got.Dist2, math.Float64frombits(want))
							}
						})
					}
				}
			}
		}
	}
}

// TestTiesBreakToTheLowestSlot plants one vector at several slots, from
// the front of the partition to its back, and requires the lowest
// eligible slot to win.
func TestTiesBreakToTheLowestSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const dim = 8
	twin, q := randVec(rng, dim), randVec(rng, dim)
	for _, n := range []int{64, 32771} {
		twins := []int{5, n / 4, n/2 + 1, n - 2}
		isTwin := make(map[int]bool)
		for _, s := range twins {
			isTwin[s] = true
		}
		idx := NewFlat()
		for i := 0; i < n; i++ {
			vec := twin
			if !isTwin[i] {
				vec = randVec(rng, dim)
				vec[0] += 100
			}
			if err := idx.Add(fmt.Sprintf("doc-%d", i), 0, vec); err != nil {
				t.Fatal(err)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			withProcs(procs, func() {
				excluded := make(map[string]bool)
				for _, wantSlot := range twins {
					got, ok := idx.Nearest(0, q, func(id string) bool { return excluded[id] })
					if want := fmt.Sprintf("doc-%d", wantSlot); !ok || got.ID != want {
						t.Fatalf("n=%d procs=%d: tie went to %v, want %s", n, procs, got.ID, want)
					}
					excluded[got.ID] = true
				}
			})
		}
	}
}

// TestLazyExclusionMatchesFilterFirst compares the scan, which asks
// exclude only of would-be winners, with the filter-first oracle over
// random exclusion sets of every density, and checks that the distances
// computed, which Probed counts, are at least one and at most the cluster.
func TestLazyExclusionMatchesFilterFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	entries := randEntries(rng, 3000, 8, 2)
	inCluster := [2]int64{}
	for _, e := range entries {
		inCluster[e.Cluster]++
	}
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			if err := idx.Rebuild(entries); err != nil {
				t.Fatal(err)
			}
			for _, density := range []float64{0, 0.1, 0.5, 0.9, 0.999, 1} {
				for trial := 0; trial < 20; trial++ {
					excluded := make(map[string]bool)
					for _, e := range entries {
						if rng.Float64() < density {
							excluded[e.ID] = true
						}
					}
					q, k := randVec(rng, 8), rng.Intn(2)
					want, wok := bruteNearest(entries, k, q, excluded)
					before := idx.Stats().Probed
					asked := 0
					got, ok := idx.Nearest(k, q, func(id string) bool { asked++; return excluded[id] })
					if ok != wok || (ok && got != want) {
						t.Fatalf("density %g: index (%v, %v) != oracle (%v, %v)", density, got, ok, want, wok)
					}
					if density == 1 && ok {
						t.Fatal("everything excluded, yet a result")
					}
					if probed := idx.Stats().Probed - before; probed < 1 || probed > inCluster[k] {
						t.Fatalf("density %g: probed %d vectors of %d", density, probed, inCluster[k])
					}
					if density == 0 && int64(asked) > inCluster[k]/4 { // a few per list scanned, not one per vector
						t.Fatalf("exclude asked %d times over %d vectors: it is back on the per-vector path", asked, inCluster[k])
					}
				}
			}
		})
	}
}
