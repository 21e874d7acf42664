package tensor

import (
	"sync"
	"testing"
)

// TestBorrowShapes: a borrowed tensor has the requested shape whatever the
// pool held — a larger buffer re-shaped, a smaller one replaced — and is
// 2-D with rows×cols elements.
func TestBorrowShapes(t *testing.T) {
	Release(New(8, 8))
	Release(New(1, 2))
	Release(nil) // ignored
	for _, s := range [][2]int{{0, 0}, {3, 5}, {8, 8}, {1, 1}, {16, 32}, {2, 3}} {
		b := Borrow(s[0], s[1])
		if b.NDim() != 2 || b.Dim(0) != s[0] || b.Dim(1) != s[1] || b.Len() != s[0]*s[1] {
			t.Fatalf("Borrow(%d, %d) has shape %v and %d elements", s[0], s[1], b.Shape(), b.Len())
		}
		Release(b)
	}
}

// TestPoolConcurrentBorrowers: goroutines that borrow, fill, check and
// release never see each other's values — a tensor is one borrower's until
// it is released. Run under -race.
func TestPoolConcurrentBorrowers(t *testing.T) {
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				rows := 1 + (w+r)%7
				b := Borrow(rows, 9)
				mark := float64(w*rounds + r)
				for i := range b.Data() {
					b.Data()[i] = mark
				}
				for _, v := range b.Data() {
					if v != mark {
						errs <- "a borrowed tensor changed under its borrower"
						return
					}
				}
				Release(b)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
