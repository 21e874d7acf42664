package dmsapi

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
)

// idEmbedder embeds images by pooled statistics — deterministic and
// training-free, keeping tests focused on the API layer.
type idEmbedder struct{ dim int }

func (e idEmbedder) Dim() int { return e.dim }
func (e idEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), e.dim)
	feats := x.Dim(1)
	chunk := (feats + e.dim - 1) / e.dim
	for i := 0; i < x.Dim(0); i++ {
		row := x.Row(i)
		for d := 0; d < e.dim; d++ {
			lo := d * chunk
			hi := min(lo+chunk, feats)
			s := 0.0
			for _, v := range row[lo:hi] {
				s += v
			}
			if hi > lo {
				out.Set(s/float64(hi-lo), i, d)
			}
		}
	}
	return out
}

var _ embed.Embedder = idEmbedder{}

// twoRegimes returns labeled samples from two visually distinct regimes.
func twoRegimes(seed int64, n int) (a, b []*codec.Sample) {
	rng := rand.New(rand.NewSource(seed))
	ra := datagen.DefaultBraggRegime()
	ra.Patch = 11
	rb := ra
	rb.WidthMean = 4.0
	rb.AmpMean = 25
	return ra.Generate(rng, n), rb.Generate(rng, n)
}

func newDataService(t *testing.T) *fairds.Service {
	t.Helper()
	store := docstore.NewStore().Collection("peaks")
	svc, err := fairds.New(idEmbedder{dim: 6}, store, fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// startServer boots a Server over real TCP and dials a Client at it.
func startServer(t *testing.T, cfg ServerConfig) (*Server, *Client) {
	t.Helper()
	if cfg.DS == nil {
		cfg.DS = newDataService(t)
	}
	if cfg.Zoo == nil {
		cfg.Zoo = fairms.NewZoo()
	}
	if cfg.BootstrapK == 0 {
		cfg.BootstrapK = 4
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	client, err := NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return srv, client
}

func dummyState(seed int64) *nn.StateDict {
	rng := rand.New(rand.NewSource(seed))
	return nn.Sequential(nn.NewLinear(rng, 3, 2)).State()
}

// TestEndToEndOverTCP exercises the acceptance path: a client ingests
// labeled samples into a fresh daemon-shaped server (bootstrap fit
// included), gets a recommendation for new data, and downloads the
// recommended checkpoint — all over a real TCP connection.
func TestEndToEndOverTCP(t *testing.T) {
	srv, client := startServer(t, ServerConfig{})
	a, b := twoRegimes(7, 40)

	// Ingest bootstrap-fits the clustering module, then stores the batch.
	ids, err := client.Ingest("regime-a", a)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(a) {
		t.Fatalf("ingest returned %d ids for %d samples", len(ids), len(a))
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.K == 0 || h.Samples != len(a) {
		t.Fatalf("health after ingest: %+v", h)
	}

	// Data-plane lookups.
	pdf, err := client.PDF(a[:10])
	if err != nil {
		t.Fatal(err)
	}
	if len(pdf) != h.K {
		t.Fatalf("pdf has %d bins, k = %d", len(pdf), h.K)
	}
	if err := pdf.Validate(); err != nil {
		t.Fatalf("pdf not a distribution: %v", err)
	}
	cert, err := client.Certainty(a[:10], 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if cert < 0 || cert > 1 {
		t.Fatalf("certainty = %g", cert)
	}
	labeled, err := client.Lookup(b[:8])
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) == 0 {
		t.Fatal("lookup returned no labeled samples")
	}
	for _, s := range labeled {
		if len(s.Label) == 0 {
			t.Fatal("retrieved sample lost its label on the wire")
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("retrieved sample corrupt: %v", err)
		}
	}
	matches, err := client.Nearest(a[:5], true)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("nearest returned %d matches", len(matches))
	}
	seen := map[string]bool{}
	for _, m := range matches {
		if !m.Found {
			t.Fatalf("no match found: %+v", matches)
		}
		if seen[m.DocID] {
			t.Fatalf("distinct matching reused doc %s", m.DocID)
		}
		seen[m.DocID] = true
	}

	// Model plane: register a checkpoint, recommend it, download it.
	rng := rand.New(rand.NewSource(3))
	trained := nn.Sequential(nn.NewLinear(rng, 3, 2))
	if err := client.AddModel("m-a", trained.State(), pdf, map[string]string{"regime": "a"}); err != nil {
		t.Fatal(err)
	}
	models, err := client.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].ID != "m-a" || models[0].Meta["regime"] != "a" {
		t.Fatalf("models = %+v", models)
	}
	rec, err := client.Recommend(pdf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK || rec.ID != "m-a" || rec.JSD != 0 {
		t.Fatalf("recommend = %+v", rec)
	}
	sd, err := client.Checkpoint(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	fresh := nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(99)), 3, 2))
	if err := fresh.LoadState(sd); err != nil {
		t.Fatalf("downloaded checkpoint does not load: %v", err)
	}
	got, want := fresh.Params()[0].Value.Data(), trained.Params()[0].Value.Data()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("checkpoint weights corrupted in transit")
		}
	}

	if n := srv.Requests(); n == 0 {
		t.Fatal("server counted no requests")
	}
}

func TestLookupBeforeBootstrapIsConflict(t *testing.T) {
	_, client := startServer(t, ServerConfig{BootstrapK: -1}) // no bootstrap
	a, _ := twoRegimes(8, 6)
	_, err := client.PDF(a)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("expected 409 before clusters are fitted, got %v", err)
	}
}

// gatedEmbedder is idEmbedder whose first Embed closes entered and then
// waits for release: the fit that call belongs to is parked inside it.
type gatedEmbedder struct {
	idEmbedder
	first            sync.Once
	entered, release chan struct{}
}

func (e *gatedEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	e.first.Do(func() {
		close(e.entered)
		<-e.release
	})
	return e.idEmbedder.Embed(x)
}

// TestReadsDuringBootstrapFitAreNotFitted parks a bootstrap ingest inside
// its fit's embed. Meanwhile /healthz reports k 0 and a certainty read is
// answered 409 not_fitted at once instead of queueing behind the fit; a
// second ingest waits, then lands under the same one fit.
func TestReadsDuringBootstrapFitAreNotFitted(t *testing.T) {
	const bootstrapK = 4
	gate := &gatedEmbedder{idEmbedder: idEmbedder{dim: 6}, entered: make(chan struct{}), release: make(chan struct{})}
	ds, err := fairds.New(gate, docstore.NewStore().Collection("peaks"), fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, client := startServer(t, ServerConfig{DS: ds, BootstrapK: bootstrapK})
	var released sync.Once
	release := func() { released.Do(func() { close(gate.release) }) }
	t.Cleanup(release) // before the server's shutdown: cleanups run last-in first-out
	a, b := twoRegimes(12, 16)

	ingested := make(chan error, 2)
	go func() {
		_, err := client.Ingest("first", a)
		ingested <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the bootstrap ingest never reached the embedder")
	}

	within := func(what string, call func() error) error {
		done := make(chan error, 1)
		go func() { done <- call() }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited on the bootstrap fit", what)
			return nil
		}
	}
	var health HealthResponse
	err = within("/healthz", func() (err error) {
		health, err = client.Health()
		return err
	})
	if err != nil || health.K != 0 || health.Fit != "" {
		t.Fatalf("/healthz during the fit: %+v, %v; want k 0 and no fit", health, err)
	}
	err = within("certainty", func() error {
		_, err := client.Certainty(a[:4], 0)
		return err
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || se.ErrCode != CodeNotFitted {
		t.Fatalf("certainty during the fit: %v; want 409 %s", err, CodeNotFitted)
	}

	go func() {
		_, err := client.Ingest("second", b)
		ingested <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.InFlight() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second ingest never reached the server")
		}
	}
	release()
	for range 2 {
		if err := <-ingested; err != nil {
			t.Fatal(err)
		}
	}

	// One fit: the one the first batch gives alone.
	ref := newDataService(t)
	x, err := fairds.Collate(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FitClustersK(x, bootstrapK); err != nil {
		t.Fatal(err)
	}
	health, err = client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if health.K != bootstrapK || health.Fit != ref.FitID() || health.Samples != len(a)+len(b) {
		t.Fatalf("/healthz after both ingests: %+v; want k %d, fit %s, %d samples", health, bootstrapK, ref.FitID(), len(a)+len(b))
	}
	if got := scrape(t, client)["dms_cluster_k"]; got != bootstrapK {
		t.Fatalf("dms_cluster_k = %v, want %d", got, bootstrapK)
	}
}

func TestRecommendThresholdAndEmptyZoo(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	rec, err := client.Recommend(stats.PDF{0.5, 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OK {
		t.Fatalf("empty zoo recommended %+v", rec)
	}
	if err := client.AddModel("far", dummyState(1), stats.PDF{0.02, 0.98}, nil); err != nil {
		t.Fatal(err)
	}
	rec, err = client.Recommend(stats.PDF{0.98, 0.02}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.OK {
		t.Fatalf("threshold should have rejected the distant model: %+v", rec)
	}
	rec, err = client.Recommend(stats.PDF{0.98, 0.02}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.OK || rec.ID != "far" {
		t.Fatalf("unthresholded recommend = %+v", rec)
	}
}

func TestCheckpointNotFound(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	_, err := client.Checkpoint("nope")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("expected 404, got %v", err)
	}
}

func TestDuplicateModelIsConflict(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	if err := client.AddModel("m", dummyState(1), stats.PDF{1}, nil); err != nil {
		t.Fatal(err)
	}
	err := client.AddModel("m", dummyState(2), stats.PDF{1}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict {
		t.Fatalf("expected 409 for duplicate id, got %v", err)
	}
}

// TestMalformedSamplesAreBadRequest feeds samples whose payload disagrees
// with their shape/dtype — untrusted input must become a 400, not a panic
// inside codec.Sample.Floats.
func TestMalformedSamplesAreBadRequest(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	bad := []struct {
		name   string
		sample Sample
	}{
		{"short payload", Sample{Shape: []int{4}, Dtype: 1, Data: []byte{1}}},
		{"unknown dtype", Sample{Shape: []int{1}, Dtype: 99, Data: []byte{1}}},
		{"empty shape product", Sample{Shape: []int{0}, Dtype: 1, Data: nil}},
	}
	for _, tc := range bad {
		wire := []Sample{tc.sample}
		for path, req := range map[string]any{
			PathPDF:       PDFRequest{Samples: wire},
			PathIngest:    IngestRequest{Dataset: "d", Samples: wire},
			PathCertainty: CertaintyRequest{Samples: wire},
			PathLookup:    LookupRequest{Samples: wire},
			PathNearest:   NearestRequest{Samples: wire},
		} {
			var out map[string]any
			err := client.postJSON(path, req, &out)
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
				t.Errorf("%s with %s: want 400, got %v", path, tc.name, err)
			}
		}
	}
	// The server must still be healthy (no wedged cache slots or panics).
	if _, err := client.Health(); err != nil {
		t.Fatalf("server unhealthy after malformed input: %v", err)
	}
}

func TestAddModelInvalidPDFIsBadRequest(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	err := client.AddModel("m", dummyState(1), stats.PDF{0.7, 0.7}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("expected 400 for invalid PDF, got %v", err)
	}
}

func TestMalformedJSONIsBadRequest(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{})
	resp, err := http.Post("http://"+srv.Addr()+PathRecommend, "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// TestSheddingReturns429 fills the admission semaphore and checks that
// service endpoints shed while health stays reachable.
func TestSheddingReturns429(t *testing.T) {
	srv, client := startServer(t, ServerConfig{MaxInFlight: 2})
	// Occupy both slots directly (white-box): requests must now shed.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	defer func() { <-srv.sem; <-srv.sem }()

	_, err := client.Recommend(stats.PDF{1}, 0)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("expected 429 when saturated, got %v", err)
	}
	if srv.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}
	// Health is exempt from shedding.
	if _, err := client.Health(); err != nil {
		t.Fatalf("healthz shed: %v", err)
	}
}

// TestRecommendCaching checks the LRU + generation-invalidation behavior
// through the HTTP path: repeat queries hit, zoo changes invalidate.
func TestRecommendCaching(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	if err := client.AddModel("m1", dummyState(1), stats.PDF{0.5, 0.5}, nil); err != nil {
		t.Fatal(err)
	}
	query := stats.PDF{0.6, 0.4}
	if _, err := client.Recommend(query, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Recommend(query, 0); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, client)
	if m["dms_cache_hits_total"] < 1 {
		t.Fatalf("repeat query did not hit the cache: %v hits", m["dms_cache_hits_total"])
	}
	missesBefore := m["dms_cache_misses_total"]

	// Adding a model bumps the zoo generation: the cached recommendation
	// is stale and must be recomputed.
	if err := client.AddModel("m2", dummyState(2), stats.PDF{0.6, 0.4}, nil); err != nil {
		t.Fatal(err)
	}
	rec, err := client.Recommend(query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != "m2" {
		t.Fatalf("stale recommendation served after zoo change: %+v", rec)
	}
	if misses := scrape(t, client)["dms_cache_misses_total"]; misses != missesBefore+1 {
		t.Fatalf("expected a fresh compute after invalidation: %v misses, want %v", misses, missesBefore+1)
	}
}

// TestConcurrentClients hammers one server with mixed operations from many
// goroutines — run under -race this is the API layer's thread-safety test.
func TestConcurrentClients(t *testing.T) {
	srv, client := startServer(t, ServerConfig{})
	a, b := twoRegimes(9, 30)
	if _, err := client.Ingest("seed", a); err != nil {
		t.Fatal(err)
	}
	pdf, err := client.PDF(a[:5])
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AddModel("base", dummyState(1), pdf, nil); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*16)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch i % 5 {
				case 0:
					if _, err := client.Ingest(fmt.Sprintf("w%d-%d", w, i), b[:3]); err != nil {
						errs <- err
					}
				case 1:
					if _, err := client.PDF(a[:5]); err != nil {
						errs <- err
					}
				case 2:
					if _, err := client.Recommend(pdf, 0); err != nil {
						errs <- err
					}
				case 3:
					if _, err := client.Lookup(b[:4]); err != nil {
						errs <- err
					}
				case 4:
					id := fmt.Sprintf("m-w%d-%d", w, i)
					if err := client.AddModel(id, dummyState(int64(w*100+i)), pdf, nil); err != nil {
						errs <- err
					}
					if _, err := client.Checkpoint(id); err != nil {
						errs <- err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent op failed: %v", err)
	}
	if srv.Shed() > 0 {
		t.Fatalf("default in-flight bound shed %d requests under modest load", srv.Shed())
	}
}

// TestClientRetriesConnectionError routes the client through a proxy that
// kills the first connection before responding: the retry layer must
// transparently recover.
func TestClientRetriesConnectionError(t *testing.T) {
	srv, _ := startServer(t, ServerConfig{})

	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var once sync.Once
	go func() {
		for {
			conn, err := proxy.Accept()
			if err != nil {
				return
			}
			killed := false
			once.Do(func() {
				conn.Close() // first connection dies before any response
				killed = true
			})
			if killed {
				continue
			}
			back, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(back, conn); back.Close() }()
			go func() { io.Copy(conn, back); conn.Close() }()
		}
	}()

	client, err := NewClient(proxy.Addr().String())
	if err != nil {
		t.Fatalf("dial through flaky proxy should retry and succeed: %v", err)
	}
	defer client.Close()
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestClientSendsBodiesWithoutACopyBuffer pins what sending a 32 KiB
// body costs, a count that does not move with the host. net/http hands a
// request body to the socket as an io.LimitedReader, so a body larger
// than the transport's write buffer is copied through a fresh buffer of up
// to 32 KiB on every request; with NewClient's 64 KiB buffer it is not.
// Measured per exchange (client and handler in this process): 48.6 KB
// with the buffer, 81.5 KB with net/http's default 4 KiB one. The ceiling
// is 1.75 × the body, 57 KiB.
func TestClientSendsBodiesWithoutACopyBuffer(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation sizes are not meaningful under -race")
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := readSized(r.Body, r.ContentLength); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
	}))
	defer srv.Close()
	client, err := NewClient(srv.Listener.Addr().String(), WithoutPing())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	body := Body{ContentType: ContentTypeFrames, Data: make([]byte, 32<<10)}
	send := func() {
		if err := client.DoBody(context.Background(), "POST", "/", body, nil); err != nil {
			t.Fatal(err)
		}
	}
	send() // the connection and its buffers
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		send()
	}
	runtime.ReadMemStats(&after)
	if per, ceiling := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(len(body.Data))*7/4; per > ceiling {
		t.Fatalf("sending a %d-byte body allocated %d bytes per exchange, want at most %d", len(body.Data), per, ceiling)
	}
}

func TestGracefulShutdown(t *testing.T) {
	srv, client := startServer(t, ServerConfig{})
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := client.Ping(); err == nil {
		t.Fatal("server still answering after shutdown")
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	m := scrape(t, client)
	if m["dms_requests_total"] == 0 || m[`dms_endpoint_latency_seconds_count{endpoint="healthz"}`] == 0 {
		t.Fatalf("metrics = %v", m)
	}
}

// TestStatsReportsVectorIndex checks that /metricsz surfaces the data
// service's vector-index counters: after an ingest and a nearest query,
// the index must be sized to the store and credited with the query.
func TestStatsReportsVectorIndex(t *testing.T) {
	_, client := startServer(t, ServerConfig{})
	a, _ := twoRegimes(21, 32)
	if _, err := client.Ingest("regime-a", a); err != nil {
		t.Fatal(err)
	}
	matches, err := client.Nearest(a[:4], false)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 4 || !matches[0].Found {
		t.Fatalf("nearest = %+v", matches)
	}
	m := scrape(t, client)
	if size := m["dms_index_size"]; size != float64(len(a)) {
		t.Fatalf("index size = %v, want %d", size, len(a))
	}
	if m["dms_index_hits_total"] == 0 || m["dms_index_probed_total"] == 0 {
		t.Fatalf("nearest query should have hit the index: hits %v, probed %v",
			m["dms_index_hits_total"], m["dms_index_probed_total"])
	}
	if c := m["dms_index_corrupt_total"]; c != 0 {
		t.Fatalf("unexpected corrupt count: %v", c)
	}
}

// TestWireSampleRoundTrip pins the Sample wire conversion.
func TestWireSampleRoundTrip(t *testing.T) {
	a, _ := twoRegimes(11, 1)
	got := FromCodec(a[0]).ToCodec()
	if got.Dtype != a[0].Dtype || got.Elems() != a[0].Elems() {
		t.Fatalf("round trip changed shape/dtype: %+v vs %+v", got, a[0])
	}
	if len(got.Label) != len(a[0].Label) {
		t.Fatal("round trip dropped label")
	}
}
