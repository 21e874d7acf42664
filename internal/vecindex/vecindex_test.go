package vecindex

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// randEntries generates n entries with dim-dimensional vectors spread over
// k clusters.
func randEntries(rng *rand.Rand, n, dim, k int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: fmt.Sprintf("doc-%d", i), Cluster: rng.Intn(k), Vec: randVec(rng, dim)}
	}
	return entries
}

func randVec(rng *rand.Rand, dim int) []float64 {
	vec := make([]float64, dim)
	for j := range vec {
		vec[j] = rng.NormFloat64()
	}
	return vec
}

// bruteNearest is the reference scan the index must agree with, to the
// bit: filter first, then the first strictly smaller Dist2 wins.
func bruteNearest(entries []Entry, clusterID int, q []float64, exclude map[string]bool) (Result, bool) {
	best := Result{Dist2: math.Inf(1)}
	found := false
	for _, e := range entries {
		if e.Cluster != clusterID || exclude[e.ID] {
			continue
		}
		if d2 := Dist2(q, e.Vec); d2 < best.Dist2 {
			best = Result{ID: e.ID, Dist2: d2}
			found = true
		}
	}
	return best, found
}

// indexes under test.
func testIndexes() map[string]Index {
	return map[string]Index{"flat": NewFlat()}
}

func TestParityWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	entries := randEntries(rng, 2000, 8, 5)
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			for _, e := range entries {
				if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
					t.Fatal(err)
				}
			}
			if idx.Len() != len(entries) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(entries))
			}
			for qi := 0; qi < 200; qi++ {
				q := randVec(rng, 8)
				k := rng.Intn(5)
				want, wok := bruteNearest(entries, k, q, nil)
				if got, ok := idx.Nearest(k, q, nil); ok != wok || got != want {
					t.Fatalf("query %d cluster %d: index (%v, %v) != brute (%v, %v)", qi, k, got, ok, want, wok)
				}
			}
		})
	}
}

func TestExclusionDistinctDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entries := randEntries(rng, 600, 6, 1) // one cluster so draws exhaust it
	q := make([]float64, 6)
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			for _, e := range entries {
				if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
					t.Fatal(err)
				}
			}
			// Fig. 9 distinct-draw loop: repeatedly take the nearest not yet
			// drawn. Distances must be non-decreasing, IDs distinct, and every
			// draw must match the brute-force answer under the same exclusions.
			drawn := map[string]bool{}
			prev := -1.0
			for i := 0; i < len(entries); i++ {
				got, ok := idx.Nearest(0, q, func(id string) bool { return drawn[id] })
				want, wok := bruteNearest(entries, 0, q, drawn)
				if !ok || !wok || got != want {
					t.Fatalf("draw %d: index (%v, %v) != brute (%v, %v)", i, got, ok, want, wok)
				}
				if drawn[got.ID] {
					t.Fatalf("draw %d returned already-drawn %s", i, got.ID)
				}
				if got.Dist2 < prev {
					t.Fatalf("draw %d: distance went backwards (%g < %g)", i, got.Dist2, prev)
				}
				drawn[got.ID] = true
				prev = got.Dist2
			}
			if _, ok := idx.Nearest(0, q, func(id string) bool { return drawn[id] }); ok {
				t.Fatal("exhausted cluster still returned a result")
			}
		})
	}
}

func TestRemoveAndReplace(t *testing.T) {
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			entries := randEntries(rng, 300, 4, 3)
			for _, e := range entries {
				if err := idx.Add(e.ID, e.Cluster, e.Vec); err != nil {
					t.Fatal(err)
				}
			}
			// Remove half, verify parity on the survivors.
			kept := entries[:0:0]
			for i, e := range entries {
				if i%2 == 0 {
					if !idx.Remove(e.ID) {
						t.Fatalf("Remove(%s) = false", e.ID)
					}
				} else {
					kept = append(kept, e)
				}
			}
			if idx.Remove("doc-0") {
				t.Fatal("second Remove of the same ID reported true")
			}
			if idx.Len() != len(kept) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(kept))
			}
			q := make([]float64, 4)
			for k := 0; k < 3; k++ {
				got, ok := idx.Nearest(k, q, nil)
				want, wok := bruteNearest(kept, k, q, nil)
				if ok != wok || got.ID != want.ID {
					t.Fatalf("cluster %d after removal: (%v, %v) != (%v, %v)", k, got, ok, want, wok)
				}
			}
			// Re-adding an ID moves it: replace a survivor's vector and
			// cluster, and the old location must be gone.
			moved := kept[0]
			newVec := make([]float64, 4)
			for j := range newVec {
				newVec[j] = 100 + float64(j)
			}
			if err := idx.Add(moved.ID, 2, newVec); err != nil {
				t.Fatal(err)
			}
			if idx.Len() != len(kept) {
				t.Fatalf("Len after replace = %d, want %d", idx.Len(), len(kept))
			}
			got, ok := idx.Nearest(2, newVec, nil)
			if !ok || got.ID != moved.ID || got.Dist2 != 0 {
				t.Fatalf("replaced vector not found at new location: (%v, %v)", got, ok)
			}
		})
	}
}

func TestDimMismatchRejected(t *testing.T) {
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			if err := idx.Add("a", 0, []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if err := idx.Add("b", 0, []float64{1, 2}); err == nil {
				t.Fatal("short vector accepted")
			}
			if err := idx.Add("c", 0, nil); err == nil {
				t.Fatal("nil vector accepted")
			}
			st := idx.Stats()
			if st.Rejected != 2 {
				t.Fatalf("Rejected = %d, want 2", st.Rejected)
			}
			if st.Size != 1 {
				t.Fatalf("Size = %d, want 1", st.Size)
			}
			if err := idx.Rebuild([]Entry{
				{ID: "a", Cluster: 0, Vec: []float64{1, 2}},
				{ID: "b", Cluster: 0, Vec: []float64{1}},
			}); err == nil {
				t.Fatal("mixed-dimension Rebuild accepted")
			}
		})
	}
}

func TestRebuildReplacesContents(t *testing.T) {
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			if err := idx.Rebuild(randEntries(rng, 500, 5, 4)); err != nil {
				t.Fatal(err)
			}
			fresh := randEntries(rng, 800, 5, 4)
			if err := idx.Rebuild(fresh); err != nil {
				t.Fatal(err)
			}
			if idx.Len() != len(fresh) {
				t.Fatalf("Len = %d, want %d", idx.Len(), len(fresh))
			}
			q := make([]float64, 5)
			for k := 0; k < 4; k++ {
				got, ok := idx.Nearest(k, q, nil)
				want, wok := bruteNearest(fresh, k, q, nil)
				if ok != wok || got.ID != want.ID {
					t.Fatalf("cluster %d after rebuild: (%v, %v) != (%v, %v)", k, got, ok, want, wok)
				}
			}
		})
	}
}

// TestConcurrentAddQueryRemove hammers an index from parallel writers,
// readers, and removers; run with -race. Queries must only ever see a
// consistent snapshot (IDs it was told about, correct distances).
func TestConcurrentAddQueryRemove(t *testing.T) {
	for name, idx := range testIndexes() {
		t.Run(name, func(t *testing.T) {
			const writers, n = 4, 400
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < n; i++ {
						vec := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
						id := fmt.Sprintf("w%d-%d", w, i)
						if err := idx.Add(id, i%4, vec); err != nil {
							t.Error(err)
							return
						}
						if i%7 == 0 {
							idx.Remove(fmt.Sprintf("w%d-%d", w, rng.Intn(i+1)))
						}
					}
				}(w)
			}
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					q := []float64{0.5, 0.5, 0.5}
					for i := 0; i < n; i++ {
						if res, ok := idx.Nearest(rng.Intn(4), q, nil); ok {
							if res.Dist2 < 0 {
								t.Errorf("negative distance %g for %s", res.Dist2, res.ID)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
			if got, want := idx.Stats().Queries, int64(4*n); got != want { // 4 readers × n queries
				t.Fatalf("Queries = %d, want %d", got, want)
			}
		})
	}
}
