package fairds

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/vecindex"
)

// seamIndex decorates the Nearest seam the way fairbench's tracer does,
// counting calls and noticing when two are in flight at once. With hold
// set, a call waits for a second one to arrive, which makes "the request
// was spread over workers" an event rather than a race.
type seamIndex struct {
	vecindex.Index
	hold     bool
	calls    atomic.Int64
	inflight atomic.Int64
	once     sync.Once
	overlap  chan struct{} // closed when two Nearest calls overlap
}

func newSeamIndex() *seamIndex {
	return &seamIndex{Index: vecindex.NewFlat(), overlap: make(chan struct{})}
}

func (x *seamIndex) Nearest(cluster int, q []float64, exclude func(string) bool) (vecindex.Result, bool) {
	x.calls.Add(1)
	if x.inflight.Add(1) == 2 {
		x.once.Do(func() { close(x.overlap) })
	}
	defer x.inflight.Add(-1)
	if x.hold {
		select {
		case <-x.overlap:
		case <-time.After(5 * time.Second):
		}
	}
	return x.Index.Nearest(cluster, q, exclude)
}

func (x *seamIndex) overlapped() bool {
	select {
	case <-x.overlap:
		return true
	default:
		return false
	}
}

// scanSizedService ingests a corpus whose partitions (~2,000 6-dim vectors
// in each of 4 clusters) make a 64-sample request worth spreading over
// workers and an 8-sample one not.
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
	if work := 64 * (len(hist) / 4) * 6; work < 2*vecindex.ForkElems {
		t.Fatalf("fixture too small to fan out: %d elements of scan work", work)
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

// TestFanOutFollowsTheWork pins when a request's probes run side by side:
// never on one processor, never for a distinct draw or a small request,
// and always for a scan-sized plain request on several processors.
func TestFanOutFollowsTheWork(t *testing.T) {
	for _, tc := range []struct {
		name     string
		procs    int
		samples  int
		distinct bool
		want     bool
	}{
		{"one processor", 1, 64, false, false},
		{"distinct draw", 4, 64, true, false},
		{"small request", 4, 8, false, false},
		{"scan-sized request", 4, 64, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx := newSeamIndex()
			svc, query := scanSizedService(t, idx)
			idx.hold = tc.want // only wait for an overlap that must come
			atProcs(tc.procs, func() {
				if _, err := svc.NearestMatches(query[:tc.samples], tc.distinct); err != nil {
					t.Fatal(err)
				}
			})
			if got := idx.overlapped(); got != tc.want {
				t.Fatalf("probes overlapped = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestNearestMatchesDuringIngest runs fanned-out reads beside batch
// ingest; its assertions are modest, the race detector is the judge.
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
