package dmscluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/dmsapi"
	"fairdms/internal/dmscluster"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/fairds"
	"fairdms/internal/fairms"
	"fairdms/internal/nn"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
)

// poolEmbedder embeds by pooled statistics — deterministic and
// training-free, so every shard (and the single-node reference) embeds
// identically, which is the replicated-model premise the scatter merges
// rely on.
type poolEmbedder struct{ dim int }

func (e poolEmbedder) Dim() int { return e.dim }
func (e poolEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
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

var _ embed.Embedder = poolEmbedder{}

// startShard boots one dmsd-shaped server with its own document-ID
// namespace (per-shard collection, like dmsd -node-id) and the shared
// determinism seed.
func startShard(t testing.TB, name string, trainWorkers int) (*dmsapi.Server, string) {
	t.Helper()
	srv, _ := newShard(t, name, trainWorkers)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// newShard builds a shard without listening and hands out its store, the
// reference the lookup tests list in full.
func newShard(t testing.TB, name string, trainWorkers int) (*dmsapi.Server, *docstore.Collection) {
	t.Helper()
	store := docstore.NewStore().Collection("peaks-" + name)
	svc, err := fairds.New(poolEmbedder{dim: 6}, store, fairds.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dmsapi.NewServer(dmsapi.ServerConfig{
		DS: svc, Zoo: fairms.NewZoo(),
		TrainWorkers: trainWorkers, TrainQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, store
}

// startCluster boots n shards and a cluster client over them.
func startCluster(t testing.TB, n int, cfg dmscluster.Config) (*dmscluster.Cluster, []*dmsapi.Server) {
	t.Helper()
	c, servers, _ := startClusterStores(t, n, cfg)
	return c, servers
}

// startClusterStores is startCluster handing out the shards' stores too.
func startClusterStores(t testing.TB, n int, cfg dmscluster.Config) (*dmscluster.Cluster, []*dmsapi.Server, []*docstore.Collection) {
	t.Helper()
	servers := make([]*dmsapi.Server, n)
	stores := make([]*docstore.Collection, n)
	for i := 0; i < n; i++ {
		servers[i], stores[i] = newShard(t, fmt.Sprintf("s%d", i), 0)
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards = append(cfg.Shards, addr)
	}
	c, err := dmscluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, servers, stores
}

// allShardMean asks every shard directly for the certainty (threshold 0.5)
// and PDF of samples and returns the means.
func allShardMean(t *testing.T, servers []*dmsapi.Server, samples []*codec.Sample) (cert float64, pdf []float64) {
	t.Helper()
	for _, srv := range servers {
		c, err := dmsapi.NewClient(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sc, err := c.Certainty(samples, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := c.PDF(samples)
		if err != nil {
			t.Fatal(err)
		}
		cert += sc
		if pdf == nil {
			pdf = make([]float64, len(sp))
		}
		for i, p := range sp {
			pdf[i] += p
		}
	}
	cert /= float64(len(servers))
	for i := range pdf {
		pdf[i] /= float64(len(servers))
	}
	return cert, pdf
}

// braggCorpus generates n labeled samples mixing two regimes.
func braggCorpus(seed int64, n int) []*codec.Sample {
	rng := rand.New(rand.NewSource(seed))
	ra := datagen.DefaultBraggRegime()
	ra.Patch = 11
	rb := ra
	rb.WidthMean = 4.0
	rb.AmpMean = 25
	out := append(ra.Generate(rng, n/2), rb.Generate(rng, n-n/2)...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

const floatTol = 1e-9

// TestClusterMergeEqualsSingleNode is the core property of the scatter
// tier: a cluster over N shards answers nearest / certainty / PDF /
// lookup exactly like one node holding the same corpus — the partition
// is invisible to readers.
func TestClusterMergeEqualsSingleNode(t *testing.T) {
	all := braggCorpus(11, 136)
	corpus, queries := all[:120], all[120:]
	const k = 4
	ctx := context.Background()

	// Single-node reference: explicit fit on the full corpus (the same
	// batch the cluster bootstrap fits on), then ingest it.
	_, refAddr := startShard(t, "ref", 0)
	ref, err := dmsapi.NewClient(refAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	if _, err := ref.Fit(ctx, corpus, k); err != nil {
		t.Fatal(err)
	}
	if resp, err := ref.IngestBatch("ref", corpus); err != nil || len(resp.Errors) > 0 {
		t.Fatalf("reference ingest: err=%v, doc errors=%v", err, resp.Errors)
	}

	// Cluster under test: the first ingest runs the coordinated bootstrap
	// (every shard fitted on the full batch) and hash-partitions the docs.
	cluster, servers, stores := startClusterStores(t, 3, dmscluster.Config{BootstrapK: k, Seed: 1, ProbeInterval: -1})
	ingest, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "clu", Samples: dmsapi.FromCodecSlice(corpus)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ingest.Errors) > 0 || ingest.Inserted != len(corpus) {
		t.Fatalf("cluster ingest: inserted %d/%d, errors %v", ingest.Inserted, len(corpus), ingest.Errors)
	}

	wireQ := dmsapi.FromCodecSlice(queries)

	// The oracle for the model-only reads, which ask one shard: the mean
	// over every shard, what the router computed when it asked them all.
	// It holds with == because the replicated models agree to the bit and
	// these values are sixteenths (16 queries), which a mean of three equal
	// terms reproduces exactly; for other values the old mean could be one
	// ulp off what any shard said.
	meanCert, meanPDF := allShardMean(t, servers, queries)

	// Certainty: one shard's answer == the all-shard mean == single value.
	singleCert, err := ref.Certainty(queries, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	clusterCert, err := cluster.Certainty(ctx, dmsapi.CertaintyRequest{Samples: wireQ, Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(singleCert-clusterCert.Certainty) > floatTol {
		t.Fatalf("certainty diverged: single %v, cluster %v", singleCert, clusterCert.Certainty)
	}
	if clusterCert.Certainty != meanCert {
		t.Fatalf("certainty %v != the all-shard mean %v", clusterCert.Certainty, meanCert)
	}
	if clusterCert.Degraded {
		t.Fatal("healthy cluster flagged certainty degraded")
	}

	// PDF: element-wise equal.
	singlePDF, err := ref.PDF(queries)
	if err != nil {
		t.Fatal(err)
	}
	clusterPDF, err := cluster.PDF(ctx, dmsapi.PDFRequest{Samples: wireQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(singlePDF) != len(clusterPDF.PDF) {
		t.Fatalf("pdf length diverged: single %d, cluster %d", len(singlePDF), len(clusterPDF.PDF))
	}
	for i := range singlePDF {
		if math.Abs(singlePDF[i]-clusterPDF.PDF[i]) > floatTol {
			t.Fatalf("pdf[%d] diverged: single %v, cluster %v", i, singlePDF[i], clusterPDF.PDF[i])
		}
	}
	if !slices.Equal(clusterPDF.PDF, meanPDF) || clusterPDF.K != len(meanPDF) || clusterPDF.Degraded {
		t.Fatalf("pdf %+v != the all-shard mean %v", clusterPDF, meanPDF)
	}

	// Nearest, plain and distinct: per-position distances equal (document
	// IDs live in different namespaces, so distance is the comparable).
	refNearest := func(samples []*codec.Sample, distinct bool, exclude []string) (dmsapi.NearestResponse, error) {
		var out dmsapi.NearestResponse
		err := ref.DoJSON(ctx, "POST", dmsapi.PathNearest,
			dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(samples), Distinct: distinct, Exclude: exclude}, &out)
		return out, err
	}
	for _, distinct := range []bool{false, true} {
		singleNear, err := refNearest(queries, distinct, nil)
		if err != nil {
			t.Fatal(err)
		}
		clusterNear, err := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: wireQ, Distinct: distinct})
		if err != nil {
			t.Fatal(err)
		}
		if len(clusterNear.Matches) != len(singleNear.Matches) {
			t.Fatalf("distinct=%v: match count diverged", distinct)
		}
		for i := range singleNear.Matches {
			s, c := singleNear.Matches[i], clusterNear.Matches[i]
			if s.Found != c.Found {
				t.Fatalf("distinct=%v match[%d]: found diverged (single %v, cluster %v)", distinct, i, s.Found, c.Found)
			}
			if s.Found && math.Abs(s.Dist-c.Dist) > floatTol {
				t.Fatalf("distinct=%v match[%d]: dist diverged (single %v, cluster %v)", distinct, i, s.Dist, c.Dist)
			}
		}
		if distinct {
			seen := make(map[string]bool)
			for _, m := range clusterNear.Matches {
				if m.Found && seen[m.DocID] {
					t.Fatalf("distinct cluster match reused document %s", m.DocID)
				}
				seen[m.DocID] = true
			}
		}
	}

	// Exclusion predicates travel the wire: excluding each side's best
	// match for a query yields the same next-best distance.
	q0 := queries[:1]
	singleBest, err := refNearest(q0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	clusterBest, err := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(q0)})
	if err != nil {
		t.Fatal(err)
	}
	singleNext, err := refNearest(q0, false, []string{singleBest.Matches[0].DocID})
	if err != nil {
		t.Fatal(err)
	}
	clusterNext, err := cluster.Nearest(ctx, dmsapi.NearestRequest{
		Samples: dmsapi.FromCodecSlice(q0),
		Exclude: []string{clusterBest.Matches[0].DocID},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(singleNext.Matches[0].Dist-clusterNext.Matches[0].Dist) > floatTol {
		t.Fatalf("excluded next-best diverged: single %v, cluster %v",
			singleNext.Matches[0].Dist, clusterNext.Matches[0].Dist)
	}
	if clusterNext.Matches[0].DocID == clusterBest.Matches[0].DocID {
		t.Fatal("cluster nearest returned an excluded document")
	}

	// Lookup: per-cluster apportioned counts match, and every returned
	// sample is a real corpus member.
	singleLook, err := ref.Lookup(queries)
	if err != nil {
		t.Fatal(err)
	}
	clusterLook, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: wireQ})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusterLook.Samples) != len(singleLook) {
		t.Fatalf("lookup size diverged: single %d, cluster %d", len(singleLook), len(clusterLook.Samples))
	}
	if clusterLook.Degraded {
		t.Fatal("healthy cluster flagged lookup degraded")
	}

	// The routed draw is the draw rule applied to the union of the shards'
	// members: list every shard's cluster in full (the reference the router
	// no longer does), keep the lowest-ranked count under seed+cluster, and
	// the result must be those documents in cluster, then ID, order. The
	// counts are the single node's, so per-cluster counts match it too.
	var single dmsapi.DrawResponse
	if err := ref.DoJSON(ctx, "POST", dmsapi.PathDraw, dmsapi.DrawRequest{Samples: wireQ, Seed: 1}, &single); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for c, n := range single.Counts {
		if len(single.IDs[c]) != n {
			t.Fatalf("single node drew %d of %d from cluster %d; the corpus should cover it", len(single.IDs[c]), n, c)
		}
		owner := make(map[string]*docstore.Collection)
		var members []string
		for _, st := range stores {
			ids, err := st.FindIDs(docstore.Query{Filters: []docstore.Filter{docstore.Eq("cluster", c)}})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				owner[id] = st
			}
			members = append(members, ids...)
		}
		seed := int64(1 + c)
		sort.Slice(members, func(i, j int) bool {
			ri, rj := docstore.DrawRank(seed, members[i]), docstore.DrawRank(seed, members[j])
			if ri != rj {
				return ri < rj
			}
			return members[i] < members[j]
		})
		members = members[:n]
		sort.Strings(members)
		for _, id := range members {
			doc, err := owner[id].Get(id)
			if err != nil {
				t.Fatal(err)
			}
			smp, err := codec.Block{}.Decode(doc.F["payload"].([]byte))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, smp.Data)
		}
	}
	if len(want) != len(clusterLook.Samples) {
		t.Fatalf("oracle merge names %d documents, the router returned %d", len(want), len(clusterLook.Samples))
	}
	for i, s := range clusterLook.Samples {
		if !bytes.Equal(s.Data, want[i]) {
			t.Fatalf("routed lookup sample %d is not the oracle merge's", i)
		}
	}
}

// TestClusterModelPlane checks zoo replication: one registration reaches
// every shard, recommend/checkpoint answer from any, and both survive a
// shard loss.
func TestClusterModelPlane(t *testing.T) {
	ctx := context.Background()
	cluster, servers := startCluster(t, 3, dmscluster.Config{Seed: 1, ProbeInterval: -1, FailAfter: 1})

	rng := rand.New(rand.NewSource(3))
	state := nn.Sequential(nn.NewLinear(rng, 4, 2)).State()
	blob, err := state.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	pdf := []float64{0.5, 0.3, 0.2}
	if _, err := cluster.AddModel(ctx, dmsapi.AddModelRequest{ID: "m1", PDF: pdf, State: blob}); err != nil {
		t.Fatal(err)
	}
	// Re-registering is replication-idempotent, surfaced as the conflict
	// the single-node API would return.
	_, err = cluster.AddModel(ctx, dmsapi.AddModelRequest{ID: "m1", PDF: pdf, State: blob})
	if !errors.Is(err, dmsapi.ErrDuplicateModel) {
		t.Fatalf("duplicate registration: got %v, want ErrDuplicateModel", err)
	}

	models, err := cluster.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 1 || models.Models[0].ID != "m1" {
		t.Fatalf("cluster models: %+v", models.Models)
	}

	rec, err := cluster.Recommend(ctx, dmsapi.RecommendRequest{PDF: pdf})
	if err != nil || !rec.OK || rec.ID != "m1" {
		t.Fatalf("recommend: %+v, err %v", rec, err)
	}
	if _, err := cluster.Checkpoint(ctx, "m1"); err != nil {
		t.Fatal(err)
	}

	// Kill one shard: the replicated zoo keeps serving.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	servers[0].Shutdown(shutCtx)
	rec, err = cluster.Recommend(ctx, dmsapi.RecommendRequest{PDF: pdf})
	if err != nil || !rec.OK || rec.ID != "m1" {
		t.Fatalf("recommend after shard loss: %+v, err %v", rec, err)
	}
	if !rec.Degraded {
		t.Fatal("recommend after shard loss should be flagged degraded")
	}
	if _, err := cluster.Checkpoint(ctx, "m1"); err != nil {
		t.Fatalf("checkpoint after shard loss: %v", err)
	}
}

// TestClusterDegradedReads checks partial-failure semantics: with one of
// three shards down, fan-out reads keep answering from the survivors
// with the Degraded flag set, ingest routes around the dead owner, and
// the membership view records the ejection.
func TestClusterDegradedReads(t *testing.T) {
	ctx := context.Background()
	all := braggCorpus(13, 96)
	corpus, queries := all[:80], all[80:]
	cluster, servers := startCluster(t, 3, dmscluster.Config{
		BootstrapK: 4, Seed: 1, ProbeInterval: -1, FailAfter: 1,
	})
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil {
		t.Fatal(err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	servers[1].Shutdown(shutCtx)

	// The router still believes the shard healthy: the lookup's draw round
	// is what finds it dead, and the survivors answer.
	look, err := cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)})
	if err != nil {
		t.Fatalf("lookup with a shard dying before the draw: %v", err)
	}
	if !look.Degraded || len(look.Samples) != len(queries) {
		t.Fatalf("lookup over the survivors: degraded=%v, %d of %d samples", look.Degraded, len(look.Samples), len(queries))
	}
	// Ejected now, so never asked — still less than full membership.
	if look, err = cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(queries)}); err != nil || !look.Degraded {
		t.Fatalf("lookup with a shard ejected: degraded=%v, err %v", look.Degraded, err)
	}

	resp, err := cluster.Certainty(ctx, dmsapi.CertaintyRequest{Samples: dmsapi.FromCodecSlice(queries), Threshold: 0.5})
	if err != nil {
		t.Fatalf("certainty with one shard down: %v", err)
	}
	if !resp.Degraded {
		t.Fatal("certainty served without a shard must be flagged degraded")
	}

	near, err := cluster.Nearest(ctx, dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(queries), Distinct: true})
	if err != nil {
		t.Fatalf("nearest with one shard down: %v", err)
	}
	if !near.Degraded {
		t.Fatal("nearest served without a shard must be flagged degraded")
	}

	// Ingest fail-open: documents owned by the dead shard land on its
	// ring successor instead of failing.
	more := braggCorpus(17, 30)
	ing, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "d", Samples: dmsapi.FromCodecSlice(more)})
	if err != nil {
		t.Fatalf("ingest with one shard down: %v", err)
	}
	if ing.Inserted != len(more) || len(ing.Errors) > 0 {
		t.Fatalf("fail-open ingest landed %d/%d docs, errors %v", ing.Inserted, len(more), ing.Errors)
	}

	st := cluster.Stats()
	if st.Shards-st.HealthyShards != 1 || st.HealthyShards != 2 {
		t.Fatalf("membership after shard loss: %+v", st)
	}
	if st.Epoch == 0 {
		t.Fatal("ejection must bump the membership epoch")
	}
	if st.DegradedResponses == 0 {
		t.Fatal("degraded responses must be counted")
	}
	unhealthy := 0
	for _, n := range st.Nodes {
		if !n.Healthy {
			unhealthy++
			if n.Ejections == 0 || n.LastError == "" {
				t.Fatalf("ejected node carries no diagnosis: %+v", n)
			}
		}
	}
	if unhealthy != 1 {
		t.Fatalf("want exactly one unhealthy node, got %d", unhealthy)
	}
}

// TestClusterStatusPassthrough checks envelope losslessness: a typed
// shard status (409 not_fitted) crosses the scatter layer with its
// status, code, and sentinel identity intact.
func TestClusterStatusPassthrough(t *testing.T) {
	ctx := context.Background()
	// BootstrapK 0: the cluster never fits, so unfitted shards answer 409.
	cluster, _ := startCluster(t, 2, dmscluster.Config{Seed: 1, ProbeInterval: -1})

	q := braggCorpus(5, 4)
	_, err := cluster.Certainty(ctx, dmsapi.CertaintyRequest{Samples: dmsapi.FromCodecSlice(q), Threshold: 0.5})
	var se *dmsapi.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("want *StatusError, got %v", err)
	}
	if se.Code != http.StatusConflict || se.ErrCode != dmsapi.CodeNotFitted {
		t.Fatalf("shard 409 not_fitted did not survive the scatter: %+v", se)
	}
	if !errors.Is(err, dmsapi.ErrNotFitted) {
		t.Fatal("passthrough error lost its sentinel identity")
	}

	// The lookup's draw round is a data endpoint like any other: an
	// unfitted cluster answers the same typed 409, not a 500.
	_, err = cluster.Lookup(ctx, dmsapi.LookupRequest{Samples: dmsapi.FromCodecSlice(q)})
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !errors.Is(err, dmsapi.ErrNotFitted) {
		t.Fatalf("lookup on an unfitted cluster: got %v, want 409 not_fitted", err)
	}
}

// TestClusterTrainRouting checks train-plane affinity: jobs land on one
// shard round-robin, their IDs carry the shard tag, and status polls and
// listings route by it.
func TestClusterTrainRouting(t *testing.T) {
	ctx := context.Background()
	var addrs []string
	for i := 0; i < 2; i++ {
		_, addr := startShard(t, fmt.Sprintf("t%d", i), 1)
		addrs = append(addrs, addr)
	}
	cluster, err := dmscluster.New(dmscluster.Config{Shards: addrs, BootstrapK: 2, Seed: 1, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)

	corpus := braggCorpus(19, 40)
	if _, err := cluster.Ingest(ctx, dmsapi.IngestBatchRequest{Dataset: "train", Samples: dmsapi.FromCodecSlice(corpus)}); err != nil {
		t.Fatal(err)
	}

	job, err := cluster.SubmitTrain(ctx, dmsapi.TrainRequest{
		Samples: dmsapi.FromCodecSlice(corpus[:16]),
		Model:   "mlp", Hidden: 8, Epochs: 2, BatchSize: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(job.ID) < 3 || job.ID[0] != 's' {
		t.Fatalf("train job ID %q carries no shard tag", job.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		job, err = cluster.TrainJob(ctx, job.ID, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if job.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("train job %s stuck in state %s", job.ID, job.State)
		}
	}
	if job.State != "done" {
		t.Fatalf("train job ended %s: %s", job.State, job.Error)
	}

	list, err := cluster.TrainJobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("cluster train listing: %+v", list.Jobs)
	}

	// The trained model is registered on its shard only; the recommend
	// fan-out still finds it.
	rec, err := cluster.Recommend(ctx, dmsapi.RecommendRequest{PDF: []float64{0.5, 0.5}})
	if err != nil || !rec.OK {
		t.Fatalf("recommend after train: %+v, err %v", rec, err)
	}

	// Over HTTP the router answers a submit with the status dmsd answers.
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{})
	routerAddr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(sctx)
	})
	submit, err := json.Marshal(dmsapi.TrainRequest{
		Samples: dmsapi.FromCodecSlice(corpus[:16]),
		Model:   "mlp", Hidden: 8, Epochs: 1, BatchSize: 8, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{addrs[0], routerAddr} {
		resp, err := http.Post("http://"+addr+dmsapi.PathTrain, "application/json", bytes.NewReader(submit))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("train submit on %s: status %d, want 200", addr, resp.StatusCode)
		}
	}

	// A model_id the (replicated) zoo already holds is refused at submit,
	// and the shard's 409 conflict crosses the router intact.
	blob, err := nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(3)), 4, 2)).State().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.AddModel(ctx, dmsapi.AddModelRequest{ID: "held", PDF: []float64{0.5, 0.5}, State: blob}); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []string{addrs[0], routerAddr} {
		client, err := dmsapi.NewClient(addr)
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.SubmitTrain(dmsapi.TrainRequest{Dataset: "train", Model: "mlp", ModelID: "held"})
		client.Close()
		var se *dmsapi.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusConflict || !errors.Is(err, dmsapi.ErrDuplicateModel) {
			t.Fatalf("train submit with a held model_id on %s: got %v, want 409 conflict", addr, err)
		}
	}
}

// TestRouterFourTierTrace checks end-to-end trace propagation through
// the standalone router: a client request inside a sampled trace produces
// ONE contiguous span tree covering client → router → every shard.
func TestRouterFourTierTrace(t *testing.T) {
	ctx := context.Background()
	cluster, _ := startCluster(t, 2, dmscluster.Config{BootstrapK: 3, Seed: 1, ProbeInterval: -1})
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{})
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(sctx)
	})

	client, err := dmsapi.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	corpus := braggCorpus(23, 60)
	if resp, err := client.IngestBatch("traced", corpus[:40]); err != nil || len(resp.Errors) > 0 {
		t.Fatalf("ingest through router: err=%v, doc errors=%v", err, resp.Errors)
	}
	// A fan-out read: certainty and pdf ask one shard only.
	tr := obs.NewTrace("", true)
	tctx, root := obs.StartSpan(obs.NewContext(ctx, tr), "client_request")
	err = client.DoJSON(tctx, "POST", dmsapi.PathNearest,
		dmsapi.NearestRequest{Samples: dmsapi.FromCodecSlice(corpus[40:48])}, &dmsapi.NearestResponse{})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Dump() // the nearest request

	// Contiguity: exactly one root, every parent index in range.
	roots := 0
	for i, sp := range d.Spans {
		if sp.Parent == -1 {
			roots++
		} else if sp.Parent < 0 || sp.Parent >= len(d.Spans) || sp.Parent == i {
			t.Fatalf("span %d (%s) has out-of-tree parent %d", i, sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("span tree has %d roots, want 1:\n%+v", roots, d.Spans)
	}

	// All four tiers present: client root and round trip, the router's
	// route + scatter spans, and each shard's request span.
	index := func(name string) []int {
		var out []int
		for i, sp := range d.Spans {
			if sp.Name == name {
				out = append(out, i)
			}
		}
		return out
	}
	hasAncestor := func(i int, anc int) bool {
		for p := d.Spans[i].Parent; p != -1; p = d.Spans[p].Parent {
			if p == anc {
				return true
			}
		}
		return false
	}
	clientRoot := index("client_request")
	roundTrips := index("http_roundtrip")
	routes := index("route")
	scatters := index("scatter_nearest")
	shardReqs := index("request")
	if len(clientRoot) != 1 || len(roundTrips) == 0 {
		t.Fatalf("client tier incomplete: roots %v, round trips %v", clientRoot, roundTrips)
	}
	if len(routes) != 1 {
		t.Fatalf("router tier: %d route spans, want 1", len(routes))
	}
	if len(scatters) != 1 {
		t.Fatalf("router scatter: %d scatter_nearest spans, want 1", len(scatters))
	}
	if len(shardReqs) != 2 {
		t.Fatalf("shard tier: %d request spans, want one per shard (2)", len(shardReqs))
	}
	if !hasAncestor(routes[0], clientRoot[0]) {
		t.Fatal("router route span is not under the client root")
	}
	for _, sr := range shardReqs {
		if !hasAncestor(sr, routes[0]) {
			t.Fatalf("shard request span %d is not under the router's route span", sr)
		}
		if !hasAncestor(sr, clientRoot[0]) {
			t.Fatalf("shard request span %d is not under the client root", sr)
		}
	}
	// The pipeline's own stages: each tier's root holds the body decode
	// and the response encode directly.
	for _, root := range append(shardReqs, routes[0]) {
		for _, stage := range []string{"decode", "encode"} {
			found := false
			for _, i := range index(stage) {
				found = found || d.Spans[i].Parent == root
			}
			if !found {
				t.Fatalf("no %s span directly under %s span %d:\n%+v", stage, d.Spans[root].Name, root, d.Spans)
			}
		}
	}
}

// TestClusterChaos is the acceptance chaos test: a mixed workload runs
// against a 3-shard cluster through the HTTP router while one shard is
// killed mid-run. The cluster must keep serving (bounded errors during
// the transition), record the ejection, and answer degraded reads from
// the survivors.
func TestClusterChaos(t *testing.T) {
	all := braggCorpus(29, 140)
	corpus, queries := all[:120], all[120:]

	cluster, servers := startCluster(t, 3, dmscluster.Config{
		BootstrapK:    4,
		Seed:          1,
		ProbeInterval: 25 * time.Millisecond,
		FailAfter:     2,
	})
	cluster.Start()
	router := dmscluster.NewRouter(cluster, dmscluster.RouterConfig{})
	addr, err := router.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		router.Shutdown(sctx)
	})

	seedClient, err := dmsapi.NewClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(seedClient.Close)
	if resp, err := seedClient.IngestBatch("chaos", corpus); err != nil || len(resp.Errors) > 0 {
		t.Fatalf("seeding through router: err=%v, doc errors=%v", err, resp.Errors)
	}

	const workers = 4
	duration := 1500 * time.Millisecond
	var ops, failures atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc, err := dmsapi.NewClient(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for time.Now().Before(deadline) {
				var err error
				switch rng.Intn(3) {
				case 0:
					_, err = wc.Certainty(queries, 0.5)
				case 1:
					_, err = wc.Nearest(queries, false)
				default:
					lo := rng.Intn(len(corpus) - 8)
					_, err = wc.IngestBatch("chaos", corpus[lo:lo+8])
				}
				ops.Add(1)
				if err != nil {
					failures.Add(1)
				}
			}
		}(w)
	}

	// Kill one shard mid-workload, hard.
	time.Sleep(duration / 3)
	killCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	servers[2].Shutdown(killCtx)
	cancel()

	wg.Wait()
	total, failed := ops.Load(), failures.Load()
	if total == 0 {
		t.Fatal("chaos workload issued no operations")
	}
	// The transition window may fail a handful of in-flight requests;
	// sustained failure means the cluster never recovered.
	if failed*4 > total {
		t.Fatalf("chaos workload: %d/%d operations failed — cluster did not stay available", failed, total)
	}

	// The router still serves, flags degradation, and reports the
	// ejection on /metricsz.
	resp, err := seedClient.DoRaw(context.Background(), "GET", dmsapi.PathMetrics, nil)
	if err != nil {
		t.Fatalf("router /metricsz after chaos: %v", err)
	}
	fams, err := obs.ParseExposition(resp)
	if err != nil {
		t.Fatalf("parsing router exposition: %v", err)
	}
	shards, _ := sampleValue(fams, "dms_router_shards", "", "")
	healthy, _ := sampleValue(fams, "dms_router_healthy_shards", "", "")
	if shards-healthy != 1 || healthy != 2 {
		t.Fatalf("router membership after kill: %v of %v shards healthy", healthy, shards)
	}
	if epoch, _ := sampleValue(fams, "dms_router_membership_epoch", "", ""); epoch == 0 {
		t.Fatal("shard kill did not bump the membership epoch")
	}
	ejected := false
	for _, s := range findFam(fams, "dms_router_node_healthy").Samples {
		ej, _ := sampleValue(fams, "dms_router_node_ejections_total", obs.NodeLabel, s.Get(obs.NodeLabel))
		if s.Value == 0 && ej > 0 {
			ejected = true
		}
	}
	if !ejected {
		t.Fatalf("no node reports an ejection:\n%s", resp)
	}

	cert, err := seedClient.DoRaw(context.Background(), "GET", dmsapi.PathHealth, nil)
	if err != nil {
		t.Fatalf("router /healthz after chaos: %v", err)
	}
	var h dmsapi.HealthResponse
	if err := json.Unmarshal(cert, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("cluster health after shard loss: %q, want degraded", h.Status)
	}
}
