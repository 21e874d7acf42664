// Package fairds implements the FAIR Data Service (paper Fig. 3, §II-A):
// the pipeline that makes high-velocity scientific data findable and
// reusable without human labeling. It combines
//
//   - an Embedding module (any embed.Embedder) that compresses images into
//     compact semantic vectors,
//   - a Clustering module (k-means with automatic K via the elbow method)
//     that groups the embedding space for two-level hierarchical search,
//   - a Data Store (docstore collection, local or remote) holding labeled
//     historical samples indexed by cluster ID and embedding, and
//   - lookup operations: dataset PDFs (cluster occupancy distributions),
//     PDF-matched labeled-dataset retrieval (pseudo-labeling), per-sample
//     nearest-neighbor label reuse, and fuzzy-clustering certainty for the
//     uncertainty-triggered refresh of the system plane.
package fairds

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"fairdms/internal/cluster"
	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/obs"
	"fairdms/internal/stats"
	"fairdms/internal/tensor"
	"fairdms/internal/vecindex"
)

// DataStore is the slice of docstore behaviour fairDS needs. Both a local
// *docstore.Collection and the RemoteCollection adapter satisfy it.
type DataStore interface {
	InsertMany(fs []docstore.Fields) ([]string, error)
	GetMany(ids []string) ([]*docstore.Doc, error)
	Find(q docstore.Query) ([]*docstore.Doc, error)
	FindIDs(q docstore.Query) ([]string, error)
	SampleIDs(q docstore.Query, n int, seed int64) ([]string, error)
	Update(id string, f docstore.Fields) error
	CreateHashIndex(field string) error
	Count() int
}

// RemoteCollection adapts a docstore.Client to the DataStore interface for
// one named collection, making the backing MongoDB-equivalent location
// (in-process or across the network) transparent to fairDS.
type RemoteCollection struct {
	Client *docstore.Client
	Name   string
}

// InsertMany forwards to the remote collection.
func (r RemoteCollection) InsertMany(fs []docstore.Fields) ([]string, error) {
	return r.Client.InsertMany(r.Name, fs)
}

// GetMany forwards to the remote collection.
func (r RemoteCollection) GetMany(ids []string) ([]*docstore.Doc, error) {
	return r.Client.GetMany(r.Name, ids)
}

// Find forwards to the remote collection.
func (r RemoteCollection) Find(q docstore.Query) ([]*docstore.Doc, error) {
	return r.Client.Find(r.Name, q)
}

// FindIDs forwards to the remote collection.
func (r RemoteCollection) FindIDs(q docstore.Query) ([]string, error) {
	return r.Client.FindIDs(r.Name, q)
}

// SampleIDs forwards to the remote collection.
func (r RemoteCollection) SampleIDs(q docstore.Query, n int, seed int64) ([]string, error) {
	return r.Client.SampleIDs(r.Name, q, n, seed)
}

// Update forwards to the remote collection.
func (r RemoteCollection) Update(id string, f docstore.Fields) error {
	return r.Client.Update(r.Name, id, f)
}

// CreateHashIndex forwards to the remote collection.
func (r RemoteCollection) CreateHashIndex(field string) error {
	return r.Client.CreateHashIndex(r.Name, field)
}

// ApplyTxn forwards a whole transaction to the remote collection.
func (r RemoteCollection) ApplyTxn(ops []docstore.TxnOp) ([]string, error) {
	return r.Client.ApplyTxn(r.Name, ops)
}

// Sibling names the collection Name+suffix on the same remote store — the
// remote form of docstore.Collection.Sibling.
func (r RemoteCollection) Sibling(suffix string) RemoteCollection {
	return RemoteCollection{Client: r.Client, Name: r.Name + suffix}
}

// CountChecked is Count with the RPC error preserved, so callers that must
// distinguish "empty" from "unreachable" (the New readiness decision) can.
func (r RemoteCollection) CountChecked() (int, error) {
	return r.Client.Count(r.Name, docstore.Query{})
}

// Count forwards to the remote collection.
func (r RemoteCollection) Count() int {
	n, err := r.Client.Count(r.Name, docstore.Query{})
	if err != nil {
		return 0
	}
	return n
}

// Config tunes the data service.
type Config struct {
	// Codec encodes sample payloads into store documents. Default: Block
	// (the "blosc" codec).
	Codec codec.Codec
	// KMin/KMax bound the elbow search for the cluster count.
	KMin, KMax int
	// Fuzzifier for certainty computation (default 2).
	Fuzzifier float64
	// Seed drives clustering and sampling determinism.
	Seed int64
	// Index is the in-process vector index consulted by the nearest-label
	// paths (vecindex.NewFlat by default; a caller may wrap it, e.g. to
	// trace its calls).
	Index vecindex.Index
	// Logger receives corrupt-embedding and index-maintenance warnings;
	// nil silences them.
	Logger *log.Logger
}

func (c *Config) defaults() {
	if c.Codec == nil {
		c.Codec = codec.Block{}
	}
	if c.KMin <= 0 {
		c.KMin = 2
	}
	if c.KMax < c.KMin+2 {
		c.KMax = c.KMin + 8
	}
	if c.Fuzzifier <= 1 {
		c.Fuzzifier = 2
	}
}

// Service is a configured FAIR data service instance.
type Service struct {
	cfg      Config
	embedder embed.Embedder
	store    DataStore
	km       *cluster.KMeans
	wss      []float64 // WSS curve from the last SelectK run

	// fits is where the fitted model is kept as a document (fit.go): the
	// sibling collection "<collection>.fit" of store, nil when store cannot
	// name one. fitID identifies km ("" while unfitted).
	fits  fitStore
	fitID string

	// width is the number of elements per sample the service was fitted or
	// ingested with, 0 while it has been neither (or was restored from a fit
	// document that predates the field). A batch of another width is refused
	// with a *WidthError before it reaches the embedder.
	width atomic.Int64

	// idx mirrors (doc ID, cluster, embedding) in process so nearest-label
	// queries probe memory instead of scanning the store over the wire.
	// idxReady reports whether the index covers the store: true from the
	// start for a store born empty (ingests keep it current), and after
	// WarmIndex or Reindex otherwise. While false, nearest-label queries
	// fall back to the brute-force store scan.
	idx      vecindex.Index
	idxReady atomic.Bool

	idxHits   atomic.Int64 // nearest-label queries answered by the index
	idxMisses atomic.Int64 // queries that fell back to a store scan
	corrupt   atomic.Int64 // stored embeddings rejected as corrupt
}

// New builds a data service over an embedder and a store. A store that
// holds a fit document (one a previous service over the same store
// published) hands the clustering model back, so a restarted daemon answers
// lookups with no client action; New refuses a document recorded under
// another embedder. Otherwise the model starts unset: call FitClusters
// (system plane) before lookups.
func New(embedder embed.Embedder, store DataStore, cfg Config) (*Service, error) {
	if embedder == nil {
		return nil, errors.New("fairds: nil embedder")
	}
	if store == nil {
		return nil, errors.New("fairds: nil store")
	}
	cfg.defaults()
	s := &Service{cfg: cfg, embedder: embedder, store: store, fits: siblingFitStore(store)}
	// Read before the first write: a store this service must refuse is left
	// exactly as found.
	if err := s.restoreFit(); err != nil {
		return nil, err
	}
	if err := store.CreateHashIndex("cluster"); err != nil {
		return nil, fmt.Errorf("fairds: indexing cluster field: %w", err)
	}
	s.idx = cfg.Index
	if s.idx == nil {
		s.idx = vecindex.NewFlat()
	}
	// A store that is empty at construction stays covered by ingests alone;
	// a pre-populated one needs WarmIndex (or Reindex) first. Crucially,
	// "empty" must not be confused with "unreachable": a remote store whose
	// count RPC failed must start cold, or the index would confidently
	// answer no-neighbor for every existing document.
	s.idxReady.Store(storeKnownEmpty(store))
	return s, nil
}

// countChecker is an optional DataStore upgrade: a Count that can report
// failure. RemoteCollection implements it; a local *docstore.Collection
// cannot fail and does not need to.
type countChecker interface {
	CountChecked() (int, error)
}

// TxnStore is an optional DataStore upgrade: a backend that can commit a
// batch of operations as one all-or-nothing transaction (one WAL commit
// record when the backing store is durable). Both *docstore.Collection
// and RemoteCollection implement it. Ingest needs no upgrade: InsertMany
// is already one such transaction on both.
type TxnStore interface {
	ApplyTxn(ops []docstore.TxnOp) ([]string, error)
}

// storeKnownEmpty reports whether the store is verifiably empty —
// errors count as "unknown", never as empty.
func storeKnownEmpty(store DataStore) bool {
	if cc, ok := store.(countChecker); ok {
		n, err := cc.CountChecked()
		return err == nil && n == 0
	}
	return store.Count() == 0
}

// Embedder returns the configured embedding module.
func (s *Service) Embedder() embed.Embedder { return s.embedder }

// Clusters returns the fitted clustering model (nil before FitClusters).
func (s *Service) Clusters() *cluster.KMeans { return s.km }

// WSSCurve returns the within-cluster-sum-of-squares curve from the last
// automatic K selection, for elbow diagnostics.
func (s *Service) WSSCurve() []float64 { return append([]float64(nil), s.wss...) }

// K returns the current cluster count (0 before FitClusters).
func (s *Service) K() int {
	if s.km == nil {
		return 0
	}
	return s.km.K()
}

// FitClusters (system plane) fits the clustering module on the embeddings
// of x, choosing K automatically by the elbow method.
func (s *Service) FitClusters(x *tensor.Tensor) error {
	rows, err := s.embedRows(x)
	if err != nil {
		return err
	}
	_, km, wss, err := cluster.SelectK(rows, s.cfg.KMin, s.cfg.KMax, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("fairds: selecting K: %w", err)
	}
	if err := s.publishFit(km, x.Dim(1)); err != nil {
		return err
	}
	s.wss = wss
	return nil
}

// FitClustersK (system plane) fits the clustering module with a fixed K,
// for experiments that pin the cluster count (the paper uses 15 for the
// Bragg data in Figs. 12 and 16).
func (s *Service) FitClustersK(x *tensor.Tensor, k int) error {
	rows, err := s.embedRows(x)
	if err != nil {
		return err
	}
	km, err := cluster.Fit(rows, cluster.Config{K: k, Seed: s.cfg.Seed})
	if err != nil {
		return fmt.Errorf("fairds: fitting %d clusters: %w", k, err)
	}
	if err := s.publishFit(km, x.Dim(1)); err != nil {
		return err
	}
	s.wss = nil
	return nil
}

// ErrNotFitted is returned by lookup paths called before FitClusters; it
// lets remote front ends distinguish "not ready yet" from internal failure.
var ErrNotFitted = errors.New("fairds: clustering model not fitted (run FitClusters first)")

// requireClusters guards lookup paths.
func (s *Service) requireClusters() error {
	if s.km == nil {
		return ErrNotFitted
	}
	return nil
}

// WidthError refuses a batch whose samples have another number of elements
// than the ones the service was fitted or ingested with: an embedder's
// first layer takes one input width, and stored embeddings and centroids
// only mean something for inputs of that width. It is the caller's mistake
// (dmsapi answers 400).
type WidthError struct {
	Got, Want int
}

func (e *WidthError) Error() string {
	return fmt.Sprintf("fairds: samples have %d elements, this service was fitted and ingested with %d", e.Got, e.Want)
}

// embedRows is the one way a batch reaches the embedder: it refuses x when
// the service knows another width, and otherwise embeds it. The rows are
// views of the embedder's result, which the caller may keep.
func (s *Service) embedRows(x *tensor.Tensor) ([][]float64, error) {
	if known := s.width.Load(); known != 0 && known != int64(x.Dim(1)) {
		return nil, &WidthError{Got: x.Dim(1), Want: int(known)}
	}
	return embed.EmbedRows(s.embedder, x), nil
}

// embedSamples collates samples into a pooled tensor, embeds it through
// embedRows and releases it.
func (s *Service) embedSamples(samples []*codec.Sample) ([][]float64, error) {
	x, err := collate(samples)
	if err != nil {
		return nil, err
	}
	defer tensor.Release(x)
	return s.embedRows(x)
}

// claimWidth gives a service without a width — one restored from a fit
// document that predates the field — the width of the first batch it
// embedded for an ingest. Only a batch the embedder took may claim it, so
// a refused or failed first ingest leaves the service free to take its
// real width.
func (s *Service) claimWidth(w int) {
	s.width.CompareAndSwap(0, int64(w))
}

// DatasetPDF computes the cluster probability distribution of a dataset:
// the fraction of its samples assigned to each cluster. This compact
// signature is what fairMS indexes models by.
func (s *Service) DatasetPDF(x *tensor.Tensor) (stats.PDF, error) {
	return s.DatasetPDFContext(context.Background(), x)
}

// DatasetPDFContext is DatasetPDF with trace-span stages (embed, pdf).
func (s *Service) DatasetPDFContext(ctx context.Context, x *tensor.Tensor) (stats.PDF, error) {
	if err := s.requireClusters(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedRows(x)
	sp.End()
	if err != nil {
		return nil, err
	}
	_, sp = obs.StartSpan(ctx, "pdf")
	defer sp.End()
	return s.km.PDF(rows), nil
}

// DefaultMembershipCut is the fuzzy-membership level at which an
// assignment counts as certain, the paper's 0.5: the threshold a Certainty
// caller passes when it has no reason to pick another.
const DefaultMembershipCut = 0.5

// Certainty returns the fraction of samples clustered with fuzzy
// membership of at least threshold — the §III-I trigger signal.
func (s *Service) Certainty(x *tensor.Tensor, threshold float64) (float64, error) {
	return s.CertaintyContext(context.Background(), x, threshold)
}

// CertaintyContext is Certainty with trace-span stages (embed,
// certainty).
func (s *Service) CertaintyContext(ctx context.Context, x *tensor.Tensor, threshold float64) (float64, error) {
	if err := s.requireClusters(); err != nil {
		return 0, err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedRows(x)
	sp.End()
	if err != nil {
		return 0, err
	}
	_, sp = obs.StartSpan(ctx, "certainty")
	defer sp.End()
	return s.km.Certainty(rows, s.cfg.Fuzzifier, threshold), nil
}

// LookupLabeled returns len(input) labeled historical samples whose cluster
// distribution matches the input dataset's PDF: for each cluster, a number
// of random labeled documents proportional to the input's occupancy
// (paper §II-A, "Data Store"). This is the pseudo-labeling operation that
// replaces expensive physics-based label computation. It is a draw and a
// fetch: LookupDrawContext picks the document IDs, one store call per
// occupied cluster run concurrently — the paper's "fetch using multiple
// clients" (§III-D), which overlaps network latency when the store is
// remote and shard locks when it is local — and one GetSamples call
// fetches them all, K+1 store round trips in total. Results are assembled
// in cluster order, sorted by ID within a cluster, so output is
// deterministic regardless of completion order.
func (s *Service) LookupLabeled(x *tensor.Tensor) ([]*codec.Sample, error) {
	return s.LookupLabeledContext(context.Background(), x)
}

// LookupLabeledContext is LookupLabeled with trace-span stages: the draw's
// (embed, pdf, one store_sample per occupied cluster) and one store_fetch
// covering the fetch and decode of every drawn document.
func (s *Service) LookupLabeledContext(ctx context.Context, x *tensor.Tensor) ([]*codec.Sample, error) {
	_, drawn, err := s.LookupDrawContext(ctx, x, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, d := range drawn {
		ids = append(ids, d...)
	}
	if len(ids) == 0 {
		return nil, errors.New("fairds: no labeled historical data matches the input distribution")
	}
	out, _, err := s.SamplesByIDContext(ctx, ids, false)
	if err != nil {
		return nil, fmt.Errorf("fairds: fetching lookup draw: %w", err)
	}
	return out, nil
}

// LookupDrawContext is the sampling half of a lookup: it apportions
// len(input) over the clusters by the input's PDF and draws that many
// document IDs from each occupied cluster — the store's lowest-DrawRank
// members under seed+k (docstore.Collection.SampleIDs), sorted by ID.
// drawn[k] is nil for a cluster with a zero count and shorter than
// counts[k] when the cluster holds fewer documents. A single node draws
// with its configured seed; a cluster router sends every shard its own, so
// the shards' draws are parts of one ranking the router can merge by
// recomputing docstore.DrawRank.
func (s *Service) LookupDrawContext(ctx context.Context, x *tensor.Tensor, seed int64) (counts []int, drawn [][]string, err error) {
	pdf, err := s.DatasetPDFContext(ctx, x)
	if err != nil {
		return nil, nil, err
	}
	counts = apportion(pdf, x.Dim(0))
	drawn = make([][]string, len(counts))
	errs := make([]error, len(counts))
	var wg sync.WaitGroup
	for k, n := range counts {
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(k, n int) {
			defer wg.Done()
			_, sp := obs.StartSpan(ctx, "store_sample")
			defer sp.End()
			drawn[k], errs[k] = s.store.SampleIDs(docstore.Query{
				Filters: []docstore.Filter{docstore.Eq("cluster", k)},
			}, n, seed+int64(k))
		}(k, n)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("fairds: sampling cluster %d: %w", k, err)
		}
	}
	return counts, drawn, nil
}

// Match pairs an input sample with its nearest labeled historical document.
type Match struct {
	DocID string  // "" when the sample's cluster holds no eligible docs
	Dist  float64 // embedding distance (+Inf when DocID is "")
}

// NearestMatches finds the nearest labeled historical document for every
// input sample using one batched embedding pass and one projected
// embedding scan per touched cluster. With distinct=true, each document is
// matched at most once (greedy, in input order). Payloads are not fetched;
// use GetSamples on the IDs the caller decides to reuse. This is the
// high-throughput path for Fig. 9-style bulk label reuse.
func (s *Service) NearestMatches(samples []*codec.Sample, distinct bool) ([]Match, error) {
	return s.NearestMatchesContext(context.Background(), samples, distinct)
}

// NearestMatchesContext is NearestMatches with trace-span stages: embed,
// then index_probe (warm index) or store_scan (cold fallback).
func (s *Service) NearestMatchesContext(ctx context.Context, samples []*codec.Sample, distinct bool) ([]Match, error) {
	return s.NearestMatchesExcluding(ctx, samples, distinct, nil)
}

// NearestMatchesExcluding is NearestMatchesContext with an initial
// exclusion set: documents in exclude are never matched, exactly as if
// they had already been taken by an earlier distinct match. This is the
// primitive the cluster router's iterative distinct-merge is built on —
// re-querying conflicted samples with the globally-taken IDs excluded.
// exclude is read, not mutated.
func (s *Service) NearestMatchesExcluding(ctx context.Context, samples []*codec.Sample, distinct bool, exclude map[string]bool) ([]Match, error) {
	if err := s.requireClusters(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedSamples(samples)
	if err != nil {
		sp.End()
		return nil, err
	}
	assign := s.km.Predict(rows)
	sp.End()

	// used is the exclusion set the scans consult. Only a distinct draw
	// grows it, so only then is the caller's set copied.
	used := exclude
	if distinct {
		used = make(map[string]bool, len(exclude))
		for id := range exclude {
			used[id] = true
		}
	}
	out := make([]Match, len(samples))

	if s.indexReady() {
		// In-process probes: one index query per sample, no store traffic.
		s.idxHits.Add(int64(len(samples)))
		_, sp := obs.StartSpan(ctx, "index_probe")
		defer sp.End()
		var skip func(string) bool
		if distinct || len(used) > 0 {
			skip = func(id string) bool { return used[id] }
		}
		probe := func(i int) string {
			res, ok := s.idx.Nearest(assign[i], rows[i], skip)
			if !ok {
				out[i] = Match{Dist: math.Inf(1)}
				return ""
			}
			out[i] = Match{DocID: res.ID, Dist: math.Sqrt(res.Dist2)}
			return res.ID
		}
		if distinct {
			// Greedy in input order: each draw sees the ones before it.
			for i := range samples {
				if id := probe(i); id != "" {
					used[id] = true
				}
			}
			return out, nil
		}
		// Independent probes: spread the request's samples over workers
		// when its scan work — samples × mean partition size × dim, in the
		// float64 elements vecindex.ForkElems is stated in — gives each
		// worker enough to pay for its goroutine. The caller is worker 0.
		work := len(samples) * (s.idx.Len() / s.km.K()) * len(rows[0])
		workers := min(runtime.GOMAXPROCS(0), len(samples), work/vecindex.ForkElems)
		var next atomic.Int64
		drain := func() {
			for i := int(next.Add(1)) - 1; i < len(samples); i = int(next.Add(1)) - 1 {
				probe(i)
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		drain()
		wg.Wait()
		return out, nil
	}

	// Cold fallback: one projected scan per distinct cluster.
	s.idxMisses.Add(int64(len(samples)))
	_, scanSpan := obs.StartSpan(ctx, "store_scan")
	defer scanSpan.End()
	type entry struct {
		id  string
		emb []float64
	}
	clusterDocs := make(map[int][]entry)
	for i, k := range assign {
		if _, done := clusterDocs[k]; done {
			continue
		}
		docs, err := s.store.Find(docstore.Query{
			Filters: []docstore.Filter{docstore.Eq("cluster", k)},
			Project: []string{"embedding"},
		})
		if err != nil {
			return nil, fmt.Errorf("fairds: scanning cluster %d: %w", k, err)
		}
		var entries []entry
		for _, d := range docs {
			emb, ok := embedding(d, len(rows[i]))
			if !ok {
				s.noteCorrupt(d.ID, errBadEmbedding)
				continue
			}
			entries = append(entries, entry{id: d.ID, emb: emb})
		}
		clusterDocs[k] = entries
	}

	for i := range samples {
		best := math.Inf(1)
		bestID := ""
		for _, e := range clusterDocs[assign[i]] {
			if used[e.id] {
				continue
			}
			if d := vecindex.Dist2(rows[i], e.emb); d < best {
				best = d
				bestID = e.id
			}
		}
		if bestID != "" && distinct {
			used[bestID] = true
		}
		out[i] = Match{DocID: bestID, Dist: math.Sqrt(best)}
	}
	return out, nil
}

// DatasetSamples fetches and decodes every stored sample ingested under
// the given dataset tag — the selector the server-side trainer resolves a
// "train on scan X" job against without the samples crossing the wire
// again. The fetch and the decode are the store_scan and decode spans.
func (s *Service) DatasetSamples(ctx context.Context, dataset string) ([]*codec.Sample, error) {
	if dataset == "" {
		return nil, errors.New("fairds: empty dataset tag")
	}
	_, sp := obs.StartSpan(ctx, "store_scan")
	docs, err := s.store.Find(docstore.Query{
		Filters: []docstore.Filter{docstore.Eq("dataset", dataset)},
	})
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("fairds: fetching dataset %q: %w", dataset, err)
	}
	_, sp = obs.StartSpan(ctx, "decode")
	defer sp.End()
	out := make([]*codec.Sample, len(docs))
	for i, d := range docs {
		smp, err := s.decodeDoc(d)
		if err != nil {
			return nil, err
		}
		out[i] = smp
	}
	return out, nil
}

// GetSamples fetches and decodes the stored samples with the given IDs.
func (s *Service) GetSamples(ids []string) ([]*codec.Sample, error) {
	docs, err := s.store.GetMany(ids)
	if err != nil {
		return nil, err
	}
	out := make([]*codec.Sample, len(docs))
	for i, d := range docs {
		smp, err := s.decodeDoc(d)
		if err != nil {
			return nil, err
		}
		out[i] = smp
	}
	return out, nil
}

// SamplesByIDContext fetches and decodes stored samples by ID. With
// partial, IDs that do not resolve (or decode) are returned in missing
// instead of failing the call — the tolerant path a cluster router uses
// when assembling a lookup from shards that may have deleted a document
// between the draw and the fetch. Returned samples follow the request
// order with misses skipped. The batch is fetched in one store call; only
// when that call reports a miss does the partial path resolve ID by ID.
func (s *Service) SamplesByIDContext(ctx context.Context, ids []string, partial bool) ([]*codec.Sample, []string, error) {
	_, sp := obs.StartSpan(ctx, "store_fetch")
	defer sp.End()
	if !partial {
		out, err := s.GetSamples(ids)
		return out, nil, err
	}
	docs, err := s.store.GetMany(ids)
	if err != nil {
		docs = make([]*docstore.Doc, len(ids))
		for i, id := range ids {
			if one, err := s.store.GetMany([]string{id}); err == nil {
				docs[i] = one[0]
			}
		}
	}
	out := make([]*codec.Sample, 0, len(ids))
	var missing []string
	for i, d := range docs {
		if d != nil {
			if smp, err := s.decodeDoc(d); err == nil {
				out = append(out, smp)
				continue
			}
		}
		missing = append(missing, ids[i])
	}
	return out, missing, nil
}

// StoreCount reports how many labeled samples the store holds.
func (s *Service) StoreCount() int { return s.store.Count() }

// Reindex is the system-plane maintenance pass of paper §II-C: after the
// embedding model has been retrained (or replaced via SetEmbedder), every
// stored document's embedding is recomputed, the clustering model is refit
// with k clusters on the refreshed embeddings, and each document's cluster
// assignment is updated in place. Batched in chunks so memory stays
// bounded on large stores. Returns the number of documents reindexed.
func (s *Service) Reindex(k int) (int, error) {
	ids, err := s.store.FindIDs(docstore.Query{})
	if err != nil {
		return 0, fmt.Errorf("fairds: reindex scan: %w", err)
	}
	if len(ids) == 0 {
		return 0, errors.New("fairds: reindex of an empty store")
	}

	// Pass 1: re-embed every document.
	const chunk = 256
	embeddings := make([][]float64, len(ids))
	width := 0
	for lo := 0; lo < len(ids); lo += chunk {
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		docs, err := s.store.GetMany(ids[lo:hi])
		if err != nil {
			return 0, fmt.Errorf("fairds: reindex fetch: %w", err)
		}
		samples := make([]*codec.Sample, len(docs))
		for i, d := range docs {
			smp, err := s.decodeDoc(d)
			if err != nil {
				return 0, err
			}
			samples[i] = smp
		}
		rows, err := s.embedSamples(samples)
		if err != nil {
			return 0, err
		}
		width = samples[0].Elems()
		copy(embeddings[lo:hi], rows)
	}

	// Refit the clustering model on the refreshed embeddings.
	km, err := cluster.Fit(embeddings, cluster.Config{K: k, Seed: s.cfg.Seed})
	if err != nil {
		return 0, fmt.Errorf("fairds: reindex clustering: %w", err)
	}
	assign := km.Predict(embeddings)

	// Pass 2: write back embeddings + cluster assignments.
	for i, id := range ids {
		err := s.store.Update(id, docstore.Fields{
			"embedding": embeddings[i],
			"cluster":   assign[i],
		})
		if err != nil {
			return i, fmt.Errorf("fairds: reindex update %s: %w", id, err)
		}
	}
	if err := s.publishFit(km, width); err != nil {
		return len(ids), err
	}
	s.wss = nil

	// The vector index is rebuilt from the same refreshed embeddings and
	// assignments, so it covers the store again even if it was cold or
	// stale (e.g. after SetEmbedder).
	entries := make([]vecindex.Entry, len(ids))
	for i, id := range ids {
		entries[i] = vecindex.Entry{ID: id, Cluster: assign[i], Vec: embeddings[i]}
	}
	if err := s.idx.Rebuild(entries); err != nil {
		s.idxReady.Store(false)
		return len(ids), fmt.Errorf("fairds: reindex vector index: %w", err)
	}
	s.idxReady.Store(true)
	return len(ids), nil
}

// WarmIndex populates the in-process vector index from the store's
// persisted embedding and cluster fields — no embedder pass needed, which
// is what lets a freshly started daemon adopt an existing store cheaply.
// Documents whose fields are missing, mistyped, or of the wrong
// dimensionality are counted as corrupt and skipped (the brute-force scan
// would skip them too). Returns the number of vectors indexed. Complete
// the warm before serving ingests: a cold service skips index maintenance,
// so documents ingested while WarmIndex is mid-flight may miss both its
// snapshot and the index.
func (s *Service) WarmIndex() (int, error) {
	docs, err := s.store.Find(docstore.Query{Project: []string{"embedding", "cluster"}})
	if err != nil {
		return 0, fmt.Errorf("fairds: warming index: %w", err)
	}
	dim := s.embedder.Dim()
	entries := make([]vecindex.Entry, 0, len(docs))
	for _, d := range docs {
		emb, ok := embedding(d, dim)
		if !ok {
			s.noteCorrupt(d.ID, errBadEmbedding)
			continue
		}
		k, ok := d.F["cluster"].(int64)
		if !ok || k < 0 {
			s.noteCorrupt(d.ID, errBadCluster)
			continue
		}
		entries = append(entries, vecindex.Entry{ID: d.ID, Cluster: int(k), Vec: emb})
	}
	if err := s.idx.Rebuild(entries); err != nil {
		return 0, fmt.Errorf("fairds: warming index: %w", err)
	}
	s.idxReady.Store(true)
	return len(entries), nil
}

// SetEmbedder swaps the embedding module (e.g. after system-plane
// retraining). Callers must Reindex afterwards so stored embeddings,
// cluster assignments, and the vector index match the new model; until
// then the vector index is marked cold and lookups fall back to scanning
// the store.
func (s *Service) SetEmbedder(e embed.Embedder) error {
	if e == nil {
		return errors.New("fairds: nil embedder")
	}
	s.embedder = e
	s.idxReady.Store(false)
	return nil
}

// indexReady reports whether the vector index can answer for the whole
// store.
func (s *Service) indexReady() bool { return s.idxReady.Load() }

// IndexStats describes the vector index's coverage and effectiveness — the
// dms_index_* families of dmsd's /metricsz.
type IndexStats struct {
	// Ready reports whether the index covers the store (queries probe it);
	// false means nearest-label queries are falling back to store scans.
	Ready bool
	// Size is the number of indexed vectors.
	Size int
	// Hits counts nearest-label queries answered by the index; Misses
	// counts queries that fell back to a store scan.
	Hits   int64
	Misses int64
	// Probed counts vectors distance-compared by the index; Probed/Hits is
	// the mean in-memory scan width.
	Probed int64
	// Corrupt counts corrupt-document observations: every time a scan,
	// warm, or index add encounters a document whose embedding or cluster
	// fields are missing, mistyped, or of the wrong dimensionality — data
	// that silently degraded lookups before it was counted. A cold service
	// re-observes the same document on every scan, so treat this as a
	// rate signal, not a distinct-document census.
	Corrupt int64
}

// IndexStats snapshots the vector-index counters. Safe to call
// concurrently with queries and ingests.
func (s *Service) IndexStats() IndexStats {
	// Index-level Rejected is not folded in: every rejected Add already
	// passed through noteCorrupt, so Corrupt covers it.
	is := s.idx.Stats()
	return IndexStats{
		Ready:   s.indexReady(),
		Size:    is.Size,
		Hits:    s.idxHits.Load(),
		Misses:  s.idxMisses.Load(),
		Probed:  is.Probed,
		Corrupt: s.corrupt.Load(),
	}
}

// CorruptEmbeddings reports how many times a stored document with corrupt
// embedding or cluster fields has been observed since the service started
// (see IndexStats.Corrupt for the exact counting semantics).
func (s *Service) CorruptEmbeddings() int64 { return s.corrupt.Load() }

var (
	errBadEmbedding = errors.New("embedding field missing, mistyped, or of the wrong dimensionality")
	errBadCluster   = errors.New("cluster field missing, mistyped, or negative")
)

// noteCorrupt counts (and, with a Logger, reports) a document whose
// stored fields cannot participate in nearest-label lookup. Before this
// accounting such documents were silently skipped, which made data
// corruption look like "no close neighbor".
func (s *Service) noteCorrupt(id string, why error) {
	s.corrupt.Add(1)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf("fairds: corrupt document %s: %v", id, why)
	}
}

// embedding extracts a document's embedding field, requiring the expected
// dimensionality.
func embedding(d *docstore.Doc, dim int) ([]float64, bool) {
	emb, ok := d.F["embedding"].([]float64)
	return emb, ok && len(emb) == dim
}

// decodeDoc decodes the payload field of a stored document.
func (s *Service) decodeDoc(d *docstore.Doc) (*codec.Sample, error) {
	raw, ok := d.F["payload"].([]byte)
	if !ok {
		return nil, fmt.Errorf("fairds: doc %s has no []byte payload", d.ID)
	}
	smp, err := s.cfg.Codec.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("fairds: decoding doc %s: %w", d.ID, err)
	}
	return smp, nil
}

// apportion converts a PDF into integer per-cluster counts summing to n
// (largest-remainder method).
func apportion(pdf stats.PDF, n int) []int {
	counts := make([]int, len(pdf))
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, len(pdf))
	total := 0
	for i, p := range pdf {
		exact := float64(p * float64(n))
		counts[i] = int(exact)
		fracs[i] = frac{idx: i, rem: exact - float64(counts[i])}
		total += counts[i]
	}
	// Distribute the remainder to the largest fractional parts.
	for total < n {
		best := -1
		for i := range fracs {
			if best < 0 || fracs[i].rem > fracs[best].rem {
				best = i
			}
		}
		counts[fracs[best].idx]++
		fracs[best].rem = -1
		total++
	}
	return counts
}

// collate stacks samples into a (N, features) tensor borrowed from the
// tensor scratch pool; every element is written. On error it borrows
// nothing.
func collate(samples []*codec.Sample) (*tensor.Tensor, error) {
	if len(samples) == 0 {
		return nil, errors.New("fairds: empty sample set")
	}
	feat := samples[0].Elems()
	for i, smp := range samples {
		if smp.Elems() != feat {
			return nil, fmt.Errorf("fairds: sample %d: %w", i, &WidthError{Got: smp.Elems(), Want: feat})
		}
	}
	x := tensor.Borrow(len(samples), feat)
	for i, smp := range samples {
		smp.FloatsInto(x.Row(i))
	}
	return x, nil
}

// Collate stacks samples into a (N, features) tensor. The tensor is
// borrowed from the tensor scratch pool (tensor.Borrow) and the caller owns
// it: one that is done with it once a call into the service has returned —
// a request handler — hands it back with tensor.Release; one that keeps it
// (a trainer's inputs) or returns it simply never releases it.
func Collate(samples []*codec.Sample) (*tensor.Tensor, error) { return collate(samples) }
