package fairds

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/vecindex"
)

// seamIndex decorates the Nearest seam the way fairbench's tracer does,
// counting calls.
type seamIndex struct {
	vecindex.Index
	calls atomic.Int64
}

func newSeamIndex() *seamIndex { return &seamIndex{Index: vecindex.NewFlat()} }

func (x *seamIndex) Nearest(cluster int, q []float64, exclude func(string) bool) (vecindex.Result, bool) {
	x.calls.Add(1)
	return x.Index.Nearest(cluster, q, exclude)
}

// scanSizedService ingests 8,000 6-dim vectors in 4 clusters (~2,000 a
// partition) and returns a 64-sample request, the size serve_scan sends.
func scanSizedService(t *testing.T, idx vecindex.Index) (*Service, []*codec.Sample) {
	t.Helper()
	svc, err := New(idEmbedder{dim: 6}, docstore.NewStore().Collection("peaks"), Config{Seed: 1, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	a, b := twoRegimes(3, 4000)
	hist := append(a, b...)
	x, err := Collate(hist)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.FitClustersK(x, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(hist, "hist"); err != nil {
		t.Fatal(err)
	}
	qa, qb := twoRegimes(17, 32)
	return svc, append(qa, qb...)
}

func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestNearestMatchesIndependentOfWorkerCount runs the serve_scan request
// (64 samples; plain and distinct; with and without an exclusion set) at
// GOMAXPROCS 1 and 4 and requires identical matches.
func TestNearestMatchesIndependentOfWorkerCount(t *testing.T) {
	idx := newSeamIndex()
	svc, query := scanSizedService(t, idx)
	first, err := svc.NearestMatches(query, false)
	if err != nil {
		t.Fatal(err)
	}
	exclude := make(map[string]bool)
	for _, m := range first {
		exclude[m.DocID] = true // forces every sample onto its next-nearest
	}
	for _, distinct := range []bool{false, true} {
		for _, excl := range []map[string]bool{nil, exclude} {
			var want []Match
			for _, procs := range []int{1, 4} {
				atProcs(procs, func() {
					before := idx.calls.Load()
					got, err := svc.NearestMatchesExcluding(t.Context(), query, distinct, excl)
					if err != nil {
						t.Fatal(err)
					}
					if n := idx.calls.Load() - before; n != int64(len(query)) {
						t.Fatalf("procs=%d: %d Nearest calls through the index seam for %d samples", procs, n, len(query))
					}
					if want == nil {
						want = got
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("distinct=%v excluding=%v sample %d: %+v at GOMAXPROCS %d, %+v at 1",
								distinct, excl != nil, i, got[i], procs, want[i])
						}
						if got[i].DocID == "" || excl[got[i].DocID] {
							t.Fatalf("sample %d matched %q", i, got[i].DocID)
						}
					}
				})
			}
		}
	}
}

// TestNearestMatchesDuringIngest runs reads beside batch ingest; its
// assertions are modest, the race detector is the judge.
func TestNearestMatchesDuringIngest(t *testing.T) {
	svc, query := scanSizedService(t, vecindex.NewFlat())
	atProcs(4, func() {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					got, err := svc.NearestMatches(query, false)
					if err != nil {
						t.Error(err)
						return
					}
					for i, m := range got {
						if m.DocID == "" {
							t.Errorf("sample %d lost its match while ingest ran", i)
							return
						}
					}
				}
			}()
		}
		for batch := 0; batch < 8; batch++ {
			a, b := twoRegimes(int64(100+batch), 64)
			if _, err := svc.IngestLabeled(append(a, b...), fmt.Sprintf("live-%d", batch)); err != nil {
				t.Error(err)
				break
			}
		}
		close(stop)
		wg.Wait()
	})
}
