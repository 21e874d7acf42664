package fairds

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/embed"
	"fairdms/internal/stats"
)

// TestRefitBesideServing refits and reindexes in a loop while other
// goroutines query and ingest with no lock of their own. Every (PDF, fit
// id) pair a reader gets must be the pair that fit gives the query alone,
// and the race detector must stay quiet.
func TestRefitBesideServing(t *testing.T) {
	svc := newService(t)
	a, b := twoRegimes(40, 32)
	all := append(append([]*codec.Sample(nil), a...), b...)
	x := mustCollate(t, all)
	if err := svc.FitClustersK(x, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.IngestLabeled(all, "seed"); err != nil {
		t.Fatal(err)
	}
	probe := a[:8]
	query := mustCollate(t, probe)

	// want maps each fit id the writer installed to the PDF that fit gives
	// the query; only the writer publishes, so it reads its own fit back.
	var wantMu sync.Mutex
	want := make(map[string]stats.PDF)
	record := func() {
		pdf := svc.Clusters().PDF(embed.EmbedRows(svc.Embedder(), query))
		wantMu.Lock()
		want[svc.FitID()] = pdf
		wantMu.Unlock()
	}
	record()

	type pair struct {
		pdf stats.PDF
		fit string
	}
	var seenMu sync.Mutex
	var seen []pair

	stop := make(chan struct{})
	var wg sync.WaitGroup
	readers := []func(i int) error{
		func(int) error {
			pdf, fit, err := svc.DatasetPDFContext(context.Background(), query)
			seenMu.Lock()
			seen = append(seen, pair{pdf, fit})
			seenMu.Unlock()
			return err
		},
		func(int) error {
			c, err := svc.Certainty(query, DefaultMembershipCut)
			if err == nil && (c < 0 || c > 1) {
				err = fmt.Errorf("certainty %v outside [0, 1]", c)
			}
			return err
		},
		func(int) error {
			_, err := svc.LookupLabeled(query)
			if err != nil && strings.Contains(err.Error(), "no labeled historical data") {
				return nil // a refit may send the query to a cluster no stored document is in
			}
			return err
		},
		func(int) error {
			_, err := svc.NearestMatches(probe, false)
			return err
		},
		func(int) error {
			_, err := svc.NearestMatches(probe, true)
			return err
		},
		func(i int) error {
			_, err := svc.IngestLabeled(b[i%len(b):i%len(b)+1], fmt.Sprintf("live-%d", i))
			return err
		},
		func(int) error {
			if k, fit := svc.K(), svc.FitID(); k == 0 || fit == "" {
				return fmt.Errorf("K %d, fit %q while fitted", k, fit)
			}
			return nil
		},
	}
	// The fits start only once every reader has completed one call: at
	// GOMAXPROCS 1 the writer would otherwise finish before any reader ran.
	// A reader releases the barrier after its first call, failed or not.
	var started sync.WaitGroup
	started.Add(len(readers))
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := read(0)
			started.Done()
			for i := 1; err == nil; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err = read(i)
			}
			t.Error(err)
		}()
	}
	started.Wait()

	err := func() error {
		for round := 0; round < 4; round++ {
			if err := svc.FitClustersK(x, 3); err != nil {
				return err
			}
			record()
			if err := svc.FitClusters(x); err != nil {
				return err
			}
			record()
			if _, err := svc.Reindex(svc.Embedder(), 3); err != nil {
				return err
			}
			record()
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if len(seen) == 0 {
		t.Fatal("no PDF read ran")
	}
	for _, p := range seen {
		if w, ok := want[p.fit]; !ok || !reflect.DeepEqual(p.pdf, w) {
			t.Fatalf("read PDF %v under fit %q; that fit gives %v (known: %v)", p.pdf, p.fit, w, ok)
		}
	}
}
