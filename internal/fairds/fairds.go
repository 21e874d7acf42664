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
	"math"
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
// *docstore.Collection and the RemoteCollection adapter satisfy it. Its
// writes are transactions: ApplyTxn, and InsertMany, a transaction of
// adds under generated IDs.
type DataStore interface {
	TxnStore
	InsertMany(fs []docstore.Fields) ([]string, error)
	GetMany(ids []string) ([]*docstore.Doc, error)
	Find(q docstore.Query) ([]*docstore.Doc, error)
	FindIDs(q docstore.Query) ([]string, error)
	SampleIDs(q docstore.Query, n int, seed int64) ([]string, error)
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

// InsertMany commits fs to the remote collection as one transaction of
// adds.
func (r RemoteCollection) InsertMany(fs []docstore.Fields) ([]string, error) {
	ops := make([]docstore.TxnOp, len(fs))
	for i, f := range fs {
		ops[i] = docstore.TxnOp{Kind: docstore.TxnAdd, F: f}
	}
	return r.Client.ApplyTxn(r.Name, ops)
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
	// Index is the in-process vector index that answers nearest-label
	// queries (vecindex.NewFlat by default; a caller may wrap it, e.g. to
	// trace its calls).
	Index vecindex.Index
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

// Service is a configured FAIR data service instance. It is safe for
// concurrent use, fits and reindexes included, and needs no lock of its
// caller's. Queries and ingests each see one fit: the embedder, clustering
// model and fit id as one publishFit installed them. A fit or Reindex
// embeds and runs k-means beside them and waits only for the calls under
// way when it publishes; a call before the first fit gets ErrNotFitted at
// once. Fits and reindexes are not ordered against each other: run one at
// a time, or the last to publish wins.
type Service struct {
	cfg   Config
	store DataStore

	// mu guards the fit. Queries and ingests hold its read side for the
	// whole call; publishFit holds the write side to install a fit.
	mu       sync.RWMutex
	embedder embed.Embedder  // guarded by mu
	km       *cluster.KMeans // guarded by mu
	wss      []float64       // guarded by mu; WSS curve from the last SelectK run
	fitID    string          // guarded by mu; identifies km ("" while unfitted)

	// fits is where the fitted model is kept as a document (fit.go): the
	// sibling collection "<collection>.fit" of store, nil when store cannot
	// name one.
	fits fitStore

	// width is the number of elements per sample the service was fitted or
	// ingested with, 0 while it has been neither (or was restored from a fit
	// document that predates the field). A batch of another width is refused
	// with a *WidthError before it reaches the embedder.
	width atomic.Int64

	// idx mirrors (doc ID, cluster, embedding) in process; nearest-label
	// queries probe it and never scan the store. It covers what the store
	// held when New opened it, plus what this service ingests or reindexes.
	idx     vecindex.Index
	corrupt atomic.Int64 // stored documents left out of idx as corrupt
}

// New builds a data service over an embedder and a store. A store that
// holds a fit document (one a previous service over the same store
// published) hands the clustering model back, so a restarted daemon answers
// lookups with no client action; New refuses a document recorded under
// another embedder. Otherwise the model starts unset: call FitClusters
// (system plane) before lookups.
//
// New builds the vector index from the store's persisted embeddings and
// cluster fields, with no embedder pass; a store it cannot read fails it.
// From then on the index covers what the store held at open, plus what this
// service ingests or reindexes: a document another writer adds to a shared
// store later is not matched by this service.
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
	if err := s.loadIndex(embedder.Dim()); err != nil {
		return nil, err
	}
	return s, nil
}

// loadIndex fills the vector index from the store's persisted embedding
// and cluster fields. A document whose fields are missing, mistyped, or of
// another dimensionality than dim is counted as corrupt and left out.
func (s *Service) loadIndex(dim int) error {
	docs, err := s.store.Find(docstore.Query{Project: []string{"embedding", "cluster"}})
	if err != nil {
		return fmt.Errorf("fairds: loading vector index: %w", err)
	}
	entries := make([]vecindex.Entry, 0, len(docs))
	for _, d := range docs {
		emb, embOK := d.F["embedding"].([]float64)
		k, kOK := d.F["cluster"].(int64)
		if !embOK || len(emb) != dim || !kOK || k < 0 {
			s.corrupt.Add(1)
			continue
		}
		entries = append(entries, vecindex.Entry{ID: d.ID, Cluster: int(k), Vec: emb})
	}
	if err := s.idx.Rebuild(entries); err != nil {
		return fmt.Errorf("fairds: loading vector index: %w", err)
	}
	return nil
}

// TxnStore is a backend that commits a batch of operations as one
// all-or-nothing transaction (one WAL commit record when the backing store
// is durable): every DataStore, and the fit document's sibling collection.
type TxnStore interface {
	ApplyTxn(ops []docstore.TxnOp) ([]string, error)
}

// Embedder returns the embedding module of the current fit.
func (s *Service) Embedder() embed.Embedder {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.embedder
}

// Clusters returns the fitted clustering model (nil before FitClusters).
func (s *Service) Clusters() *cluster.KMeans {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.km
}

// WSSCurve returns the within-cluster-sum-of-squares curve from the last
// automatic K selection, for elbow diagnostics.
func (s *Service) WSSCurve() []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]float64(nil), s.wss...)
}

// K returns the current cluster count (0 before FitClusters).
func (s *Service) K() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.km == nil {
		return 0
	}
	return s.km.K()
}

// FitClusters (system plane) fits the clustering module on the embeddings
// of x, choosing K automatically by the elbow method.
func (s *Service) FitClusters(x *tensor.Tensor) error {
	e := s.Embedder()
	rows, err := s.embedRows(e, x)
	if err != nil {
		return err
	}
	_, km, wss, err := cluster.SelectK(rows, s.cfg.KMin, s.cfg.KMax, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("fairds: selecting K: %w", err)
	}
	return s.publishFit(e, km, wss, x.Dim(1), nil)
}

// FitClustersK (system plane) fits the clustering module with a fixed K,
// for experiments that pin the cluster count (the paper uses 15 for the
// Bragg data in Figs. 12 and 16).
func (s *Service) FitClustersK(x *tensor.Tensor, k int) error {
	e := s.Embedder()
	rows, err := s.embedRows(e, x)
	if err != nil {
		return err
	}
	km, err := cluster.Fit(rows, cluster.Config{K: k, Seed: s.cfg.Seed})
	if err != nil {
		return fmt.Errorf("fairds: fitting %d clusters: %w", k, err)
	}
	return s.publishFit(e, km, nil, x.Dim(1), nil)
}

// ErrNotFitted is returned by lookup paths called before FitClusters; it
// lets remote front ends distinguish "not ready yet" from internal failure.
var ErrNotFitted = errors.New("fairds: clustering model not fitted (run FitClusters first)")

// requireClusters guards lookup paths.
//
// lint:holds s.mu
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

// embedRows is the one way a batch reaches an embedder — the service's,
// or the one Reindex is installing: it refuses x when the service knows
// another width, and otherwise embeds it with e. The rows are views of the
// embedder's result, which the caller may keep.
func (s *Service) embedRows(e embed.Embedder, x *tensor.Tensor) ([][]float64, error) {
	if known := s.width.Load(); known != 0 && known != int64(x.Dim(1)) {
		return nil, &WidthError{Got: x.Dim(1), Want: int(known)}
	}
	return embed.EmbedRows(e, x), nil
}

// embedSamples collates samples into a pooled tensor, embeds it with e
// through embedRows and releases it.
func (s *Service) embedSamples(e embed.Embedder, samples []*codec.Sample) ([][]float64, error) {
	x, err := collate(samples)
	if err != nil {
		return nil, err
	}
	defer tensor.Release(x)
	return s.embedRows(e, x)
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
	pdf, _, err := s.DatasetPDFContext(context.Background(), x)
	return pdf, err
}

// DatasetPDFContext is DatasetPDF with trace-span stages (embed, pdf). It
// also returns the id of the fit the PDF was computed under, read with it.
func (s *Service) DatasetPDFContext(ctx context.Context, x *tensor.Tensor) (pdf stats.PDF, fitID string, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasetPDF(ctx, x)
}

// datasetPDF is DatasetPDFContext for a caller that holds the read side.
//
// lint:holds s.mu
func (s *Service) datasetPDF(ctx context.Context, x *tensor.Tensor) (stats.PDF, string, error) {
	if err := s.requireClusters(); err != nil {
		return nil, "", err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedRows(s.embedder, x)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	_, sp = obs.StartSpan(ctx, "pdf")
	defer sp.End()
	return s.km.PDF(rows), s.fitID, nil
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.requireClusters(); err != nil {
		return 0, err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedRows(s.embedder, x)
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
// deterministic regardless of completion order. A lookup draws cluster k
// under the configured seed plus k every time, so from the first lookup on
// each store stripe answers from its draw slab for that cluster and seed
// (docstore.Collection.SampleIDs): the draw re-hashes no document ID, and
// costs a comparison per cluster member.
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	pdf, _, err := s.datasetPDF(ctx, x)
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
// input sample using one batched embedding pass and one vector-index probe
// per sample, within the sample's predicted cluster. With distinct=true,
// each document is matched at most once (greedy, in input order). Payloads
// are not fetched; use GetSamples on the IDs the caller decides to reuse.
// This is the high-throughput path for Fig. 9-style bulk label reuse.
func (s *Service) NearestMatches(samples []*codec.Sample, distinct bool) ([]Match, error) {
	return s.NearestMatchesContext(context.Background(), samples, distinct)
}

// NearestMatchesContext is NearestMatches with trace-span stages: embed,
// then index_probe.
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.requireClusters(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "embed")
	rows, err := s.embedSamples(s.embedder, samples)
	if err != nil {
		sp.End()
		return nil, err
	}
	assign := s.km.Predict(rows)
	sp.End()

	// used is the exclusion set the probes consult. Only a distinct draw
	// grows it, so only then is the caller's set copied.
	used := exclude
	if distinct {
		used = make(map[string]bool, len(exclude))
		for id := range exclude {
			used[id] = true
		}
	}
	out := make([]Match, len(samples))
	_, sp = obs.StartSpan(ctx, "index_probe")
	defer sp.End()
	var skip func(string) bool
	if distinct || len(used) > 0 {
		skip = func(id string) bool { return used[id] }
	}
	// One probe per sample, in input order on this goroutine; a distinct
	// draw is greedy, so each sees the ones before it.
	for i := range samples {
		res, ok := s.idx.Nearest(assign[i], rows[i], skip)
		if !ok {
			out[i] = Match{Dist: math.Inf(1)}
			continue
		}
		out[i] = Match{DocID: res.ID, Dist: math.Sqrt(res.Dist2)}
		if distinct {
			used[res.ID] = true
		}
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
	return s.decodeEach(docs)
}

// GetSamples fetches and decodes the stored samples with the given IDs, in
// their order; a document that does not decode fails the call, the first
// such in that order naming the error.
func (s *Service) GetSamples(ids []string) ([]*codec.Sample, error) {
	docs, err := s.store.GetMany(ids)
	if err != nil {
		return nil, err
	}
	return s.decodeEach(docs)
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
	decoded, errs := s.decodeDocs(docs)
	out := decoded[:0] // compacted in place: out never holds more entries than the loop has read
	var missing []string
	for i, d := range docs {
		if d != nil && errs[i] == nil {
			out = append(out, decoded[i])
			continue
		}
		missing = append(missing, ids[i])
	}
	return out, missing, nil
}

// StoreCount reports how many labeled samples the store holds.
func (s *Service) StoreCount() int { return s.store.Count() }

// Reindex is the system-plane maintenance pass of paper §II-C, run after
// the embedding model has been retrained: every stored document is
// re-embedded with e, the clustering model is refit with k clusters on the
// refreshed embeddings, each document's embedding and cluster are written
// back in place, and the vector index is rebuilt from them. Batched in
// chunks so memory stays bounded on large stores. Returns the number of
// documents reindexed.
//
// The passes and the refit run beside queries and ingests; e, the refit
// and the rebuilt index are then installed together in publishFit's write
// section, so no query embeds with one model and probes the embeddings of
// another. A document ingested while the passes run is stored under the
// previous embedder and fit, and the rebuilt index leaves it out until the
// next Reindex. An error up to the fit commit leaves the service on its
// previous embedder, fit and index; documents already written back keep
// what e gave them, so run Reindex again. A failed rebuild — vecindex.Flat
// refuses only vectors of mixed dimensions, which one embedder does not
// produce — leaves e and the refit installed over the previous index.
func (s *Service) Reindex(e embed.Embedder, k int) (int, error) {
	if e == nil {
		return 0, errors.New("fairds: nil embedder")
	}
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
		hi := min(lo+chunk, len(ids))
		docs, err := s.store.GetMany(ids[lo:hi])
		if err != nil {
			return 0, fmt.Errorf("fairds: reindex fetch: %w", err)
		}
		samples, err := s.decodeEach(docs)
		if err != nil {
			return 0, err
		}
		rows, err := s.embedSamples(e, samples)
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

	// Pass 2: write back embeddings + cluster assignments, one document
	// per transaction.
	for i, id := range ids {
		_, err := s.store.ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnUpdate, ID: id, F: docstore.Fields{
			"embedding": embeddings[i],
			"cluster":   assign[i],
		}}})
		if err != nil {
			return i, fmt.Errorf("fairds: reindex update %s: %w", id, err)
		}
	}
	entries := make([]vecindex.Entry, len(ids))
	for i, id := range ids {
		entries[i] = vecindex.Entry{ID: id, Cluster: assign[i], Vec: embeddings[i]}
	}
	return len(ids), s.publishFit(e, km, nil, width, entries)
}

// IndexStats describes the vector index's size and effectiveness — the
// dms_index_* families of dmsd's /metricsz.
type IndexStats struct {
	// Size is the number of indexed vectors.
	Size int
	// Hits counts nearest-label probes, one per queried sample.
	Hits int64
	// Probed counts vectors distance-compared by the index; Probed/Hits is
	// the mean in-memory scan width.
	Probed int64
	// Corrupt counts the stored documents left out of the index: at open,
	// those whose embedding or cluster fields are missing, mistyped, or of
	// the wrong dimensionality; since, ingested ones the index refused.
	// Each document is counted once.
	Corrupt int64
}

// IndexStats snapshots the vector-index counters. Safe to call
// concurrently with queries and ingests.
func (s *Service) IndexStats() IndexStats {
	// Index-level Rejected is not folded in: every rejected Add is already
	// counted in corrupt.
	is := s.idx.Stats()
	return IndexStats{
		Size:    is.Size,
		Hits:    is.Queries,
		Probed:  is.Probed,
		Corrupt: s.corrupt.Load(),
	}
}

// fetchForkDocs is the most documents a fetch decodes on the caller's
// goroutine. A 900-byte Bragg patch decodes in about a microsecond, so a
// fetch of this many costs about what a fork does: serving's 64-sample
// lookups and a cluster router's fetch rounds stay on the caller, and a
// 512-sample pseudo-labelling lookup spreads over GOMAXPROCS.
const fetchForkDocs = 64

// decodeDocs decodes docs[i] into out[i], or its error into errs[i], a nil
// document into neither. The samples share storage allocated once for the
// fetch (codec.Batch). A fetch of more than fetchForkDocs documents is split
// into contiguous blocks across goroutines (tensor.ParallelWork); each
// document decodes alone, so the result does not depend on the split.
func (s *Service) decodeDocs(docs []*docstore.Doc) (out []*codec.Sample, errs []error) {
	out, errs = make([]*codec.Sample, len(docs)), make([]error, len(docs))
	frames := make([][]byte, len(docs))
	for i, d := range docs {
		if d != nil {
			frames[i], _ = d.F["payload"].([]byte)
		}
	}
	batch := codec.NewBatch(s.cfg.Codec, frames)
	work := 0
	if len(docs) > fetchForkDocs {
		work = tensor.ForkWork
	}
	tensor.ParallelWork(len(docs), work, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if docs[i] != nil {
				out[i], errs[i] = decodeDoc(batch, i, docs[i])
			}
		}
	})
	return out, errs
}

// decodeEach is decodeDocs for a fetch that fails whole: the samples in
// order, or the error of the first document that does not decode.
func (s *Service) decodeEach(docs []*docstore.Doc) ([]*codec.Sample, error) {
	out, errs := s.decodeDocs(docs)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeDoc decodes the payload field of stored document d, frame i of batch.
func decodeDoc(batch *codec.Batch, i int, d *docstore.Doc) (*codec.Sample, error) {
	if _, ok := d.F["payload"].([]byte); !ok {
		return nil, fmt.Errorf("fairds: doc %s has no []byte payload", d.ID)
	}
	smp, err := batch.Decode(i)
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
