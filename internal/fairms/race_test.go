package fairms

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fairdms/internal/stats"
)

// TestZooConcurrentUse hammers one store-backed zoo with concurrent Add,
// Recommend, Rank, Get, IDs and compaction callers. The zoo is documented
// as safe for concurrent use; under -race this test is what holds it to
// that — and to readers never needing the lock Add holds while it writes.
func TestZooConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	ds, col := openStore(t, dir)
	z := openZoo(t, col)
	if err := z.Add("seed", dummyState(0), stats.PDF{0.5, 0.5}, nil); err != nil {
		t.Fatal(err)
	}
	query := stats.PDF{0.6, 0.4}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					pdf := stats.PDF{float64(i%10+1) / 20, 1 - float64(i%10+1)/20}
					id := fmt.Sprintf("w%d-i%d", w, i)
					if err := z.Add(id, dummyState(int64(w*1000+i)), pdf, map[string]string{"w": fmt.Sprint(w)}); err != nil {
						errs <- err
					}
				case 1:
					if _, err := z.Recommend(query); err != nil {
						errs <- err
					}
				case 2:
					ranked, err := z.Rank(query)
					if err != nil {
						errs <- err
					}
					for j := 1; j < len(ranked); j++ {
						if ranked[j].JSD < ranked[j-1].JSD {
							errs <- fmt.Errorf("rank order broken under concurrency")
						}
					}
				case 3:
					for _, id := range z.IDs() {
						if _, err := z.Get(id); err != nil {
							errs <- err
						}
					}
				case 4:
					// A checkpoint cut while models are being added must
					// lose none of them.
					if err := ds.Compact(); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every successful Add is visible, and a reopen sees the same models
	// in the same order.
	want := 1 + workers*(iters/5) // seed + each worker's case-0 adds (i = 0,5,10,15,20 → 5 per worker)
	if z.Len() != want {
		t.Fatalf("zoo holds %d records, want %d", z.Len(), want)
	}
	ds.Close()
	_, col = openStore(t, dir)
	if got := openZoo(t, col).IDs(); !reflect.DeepEqual(got, z.IDs()) {
		t.Fatalf("reopened zoo lists %v, the live one %v", got, z.IDs())
	}
}
