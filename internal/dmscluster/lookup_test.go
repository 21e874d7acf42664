package dmscluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
)

// frontedShard is a shard behind a handler that counts requests by path,
// keeps the last body each path received, and can act between the
// router's two lookup rounds.
type frontedShard struct {
	store *docstore.Collection
	addr  string

	mu     sync.Mutex
	hits   map[string]int
	bodies map[string][]byte
	// afterDraw, when set, runs once the shard has answered a draw and
	// before the router sees the answer.
	afterDraw func(dmsapi.DrawResponse)
}

func (f *frontedShard) count(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

func (f *frontedShard) body(path string) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bodies[path]
}

func (f *frontedShard) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits = make(map[string]int)
	f.bodies = make(map[string][]byte)
}

func startFrontedCluster(t *testing.T, n int, cfg dmscluster.Config) (*dmscluster.Cluster, []*frontedShard) {
	t.Helper()
	shards := make([]*frontedShard, n)
	for i := range shards {
		srv, store := newShard(t, fmt.Sprintf("f%d", i), 0)
		f := &frontedShard{store: store}
		f.reset()
		inner := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("front of shard %d: reading the request: %v", i, err)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			f.mu.Lock()
			f.hits[r.URL.Path]++
			f.bodies[r.URL.Path] = body
			hook := f.afterDraw
			f.mu.Unlock()
			if r.URL.Path != dmsapi.PathDraw || hook == nil {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			var resp dmsapi.DrawResponse
			if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil {
				hook(resp)
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		}))
		t.Cleanup(ts.Close)
		f.addr = strings.TrimPrefix(ts.URL, "http://")
		shards[i] = f
		cfg.Shards = append(cfg.Shards, f.addr)
	}
	c, err := dmscluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, shards
}

// TestScatterSendsEveryShardTheSameBytes: a scatter round encodes its
// request once, so what a routed nearest puts on the wire is one body,
// framed, byte-identical at all three shards.
func TestScatterSendsEveryShardTheSameBytes(t *testing.T) {
	ctx := context.Background()
	cluster, shards := startFrontedCluster(t, 3, dmscluster.Config{BootstrapK: 4, Seed: 1, ProbeInterval: -1})
	all := braggCorpus(47, 72)
	corpus, queries := all[:64], all[64:]
	if resp, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil || len(resp.Errors) > 0 {
		t.Fatalf("ingest: err=%v, doc errors=%v", err, resp.Errors)
	}
	for _, f := range shards {
		f.reset()
	}
	if _, err := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(queries)}); err != nil {
		t.Fatal(err)
	}
	want, err := dmsapi.EncodeBody(dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil {
		t.Fatal(err)
	}
	if want.ContentType != dmsapi.ContentTypeFrames {
		t.Fatalf("a nearest request encodes as %q, want frames", want.ContentType)
	}
	for i, f := range shards {
		if n := f.count(dmsapi.PathNearest); n != 1 {
			t.Fatalf("shard %d served %d nearest requests, want 1", i, n)
		}
		if !bytes.Equal(f.body(dmsapi.PathNearest), want.Data) {
			t.Fatalf("shard %d received %d bytes that are not the request's one encoding (%d bytes)",
				i, len(f.body(dmsapi.PathNearest)), len(want.Data))
		}
	}
}

// TestLookupIsTwoRoundsPerShard: a routed lookup costs each shard one
// draw and at most one fetch, whatever the number of occupied clusters,
// and the per-cluster listing route it replaced is gone.
func TestLookupIsTwoRoundsPerShard(t *testing.T) {
	ctx := context.Background()
	all := braggCorpus(37, 200)
	corpus, queries := all[:160], all[160:]
	cluster, shards := startFrontedCluster(t, 3, dmscluster.Config{BootstrapK: 6, Seed: 1, ProbeInterval: -1})
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil {
		t.Fatal(err)
	}
	for _, f := range shards {
		f.reset()
	}

	resp, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || len(resp.Samples) != len(queries) {
		t.Fatalf("lookup: degraded=%v, %d of %d samples", resp.Degraded, len(resp.Samples), len(queries))
	}
	fetches := 0
	for i, f := range shards {
		f.mu.Lock()
		hits := maps.Clone(f.hits)
		f.mu.Unlock()
		total := 0
		for _, n := range hits {
			total += n
		}
		draws, samples := hits[dmsapi.PathDraw], hits[dmsapi.PathSamples]
		if draws != 1 || samples > 1 || total != draws+samples {
			t.Errorf("shard %d served %v for one lookup; want one draw and at most one samples fetch", i, hits)
		}
		fetches += samples
	}
	if fetches == 0 {
		t.Fatal("no shard was asked for samples")
	}

	// The listing route is not kept beside the draw.
	r, err := http.Post("http://"+shards[0].addr+"/v1/data/ids", "application/json", bytes.NewReader([]byte(`{"cluster":0}`)))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/data/ids = %d, want 404", r.StatusCode)
	}
}

// TestLookupSkipsShardWithDivergentCounts: a shard fitted with another K
// apportions differently; its draw cannot be merged, so it is left out and
// the answer says so.
func TestLookupSkipsShardWithDivergentCounts(t *testing.T) {
	ctx := context.Background()
	all := braggCorpus(41, 136)
	corpus, queries := all[:120], all[120:]
	// BootstrapK 0: the shards are fitted by hand, one of them differently.
	cluster, shards := startFrontedCluster(t, 3, dmscluster.Config{Seed: 1, ProbeInterval: -1})
	for i, f := range shards {
		cl, err := dmsapi.NewClient(f.addr)
		if err != nil {
			t.Fatal(err)
		}
		k := 4
		if i == 2 {
			k = 3
		}
		_, err = cl.Fit(ctx, corpus, k)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil {
		t.Fatal(err)
	}
	for _, f := range shards {
		f.reset()
	}
	resp, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || len(resp.Samples) == 0 {
		t.Fatalf("lookup beside a divergent shard: degraded=%v, %d samples", resp.Degraded, len(resp.Samples))
	}
	if n := shards[2].count(dmsapi.PathSamples); n != 0 {
		t.Fatalf("the divergent shard was fetched from %d times", n)
	}
	if cluster.Stats().DegradedResponses == 0 {
		t.Fatal("degraded lookup not counted")
	}
}

// TestLookupSurvivesDeleteBetweenRounds: a document drawn in round one and
// deleted before round two is a miss on the tolerant fetch — the rest of
// the draw is returned and the answer is flagged.
func TestLookupSurvivesDeleteBetweenRounds(t *testing.T) {
	ctx := context.Background()
	all := braggCorpus(43, 136)
	corpus, queries := all[:120], all[120:]
	cluster, shards := startFrontedCluster(t, 3, dmscluster.Config{BootstrapK: 4, Seed: 1, ProbeInterval: -1})
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil {
		t.Fatal(err)
	}
	whole, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil || whole.Degraded {
		t.Fatalf("undisturbed lookup: degraded=%v, err %v", whole.Degraded, err)
	}

	// Every shard deletes everything it drew: whatever the merge keeps from
	// it is gone by the fetch. Shard 0 is left alone so something survives.
	var deleted atomic.Int64
	for _, f := range shards[1:] {
		f.mu.Lock()
		f.afterDraw = func(resp dmsapi.DrawResponse) {
			for _, ids := range resp.IDs {
				for _, id := range ids {
					if f.store.Delete(id) == nil {
						deleted.Add(1)
					}
				}
			}
		}
		f.mu.Unlock()
	}
	resp, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil {
		t.Fatalf("lookup with documents deleted between draw and fetch: %v", err)
	}
	if deleted.Load() == 0 {
		t.Fatal("the hook deleted nothing; the test exercised no miss")
	}
	if !resp.Degraded {
		t.Fatal("a drawn document missing at the fetch must flag the lookup degraded")
	}
	if len(resp.Samples) == 0 || len(resp.Samples) >= len(whole.Samples) {
		t.Fatalf("got %d samples; want some but fewer than the undisturbed %d", len(resp.Samples), len(whole.Samples))
	}
}

// benchCluster is the routed-read benchmarks' fixture: three in-process
// shards holding 32k documents, 64 query samples, and a count of the
// requests the shards have served.
func benchCluster(b *testing.B) (*dmscluster.Cluster, []dmsapi.Sample, func() int64) {
	ctx := context.Background()
	all := braggCorpus(47, 32768+64)
	corpus, queries := all[:32768], dmsapi.FromCodecSlice(all[32768:])
	cluster, servers := startCluster(b, 3, dmscluster.Config{BootstrapK: 7, Seed: 1, ProbeInterval: -1})
	for lo := 0; lo < len(corpus); lo += 4096 {
		req := dmsapi.IngestBatchRequest{Dataset: "bench", Samples: dmsapi.FromCodecSlice(corpus[lo : lo+4096])}
		if resp, err := cluster.Ingest(ctx, req); err != nil || len(resp.Errors) > 0 {
			b.Fatalf("ingest: err=%v, doc errors=%d", err, len(resp.Errors))
		}
	}
	requests := func() (n int64) {
		for _, s := range servers {
			n += s.Requests()
		}
		return n
	}
	return cluster, queries, requests
}

// BenchmarkLookup is one routed 64-sample lookup over three in-process
// shards holding 32k documents; shard-reqs/op is the scatter cost the
// two-round design bounds at 2 × shards.
func BenchmarkLookup(b *testing.B) {
	ctx := context.Background()
	cluster, queries, requests := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	before := requests()
	for i := 0; i < b.N; i++ {
		resp, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: queries})
		if err != nil || len(resp.Samples) != len(queries) {
			b.Fatalf("lookup: %d samples, err %v", len(resp.Samples), err)
		}
	}
	b.ReportMetric(float64(requests()-before)/float64(b.N), "shard-reqs/op")
}

// BenchmarkNearest is one routed 64-sample nearest on BenchmarkLookup's
// fixture: one scatter round, a match list from each shard, one merge.
func BenchmarkNearest(b *testing.B) {
	ctx := context.Background()
	cluster, queries, requests := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	before := requests()
	for i := 0; i < b.N; i++ {
		resp, err := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: queries})
		if err != nil || len(resp.Matches) != len(queries) {
			b.Fatalf("nearest: %d matches, err %v", len(resp.Matches), err)
		}
	}
	b.ReportMetric(float64(requests()-before)/float64(b.N), "shard-reqs/op")
}
