package dmscluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairdms/internal/dmsapi"
	"fairdms/internal/docstore"
	"fairdms/internal/obs"
)

// shardResult is one shard's answer to a fan-out call.
type shardResult[T any] struct {
	node *node
	val  T
	err  error
}

// fanOut runs f against every node concurrently and collects the
// results. Transport-level failures are charged against the shard's
// health; status responses are not (the shard answered).
func fanOut[T any](c *Cluster, ctx context.Context, nodes []*node, f func(context.Context, *node) (T, error)) []shardResult[T] {
	out := make([]shardResult[T], len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			v, err := f(ctx, n)
			if err != nil {
				c.shardFailure(n, err)
			} else {
				c.noteSuccess(n)
			}
			out[i] = shardResult[T]{node: n, val: v, err: err}
		}(i, n)
	}
	wg.Wait()
	return out
}

// scatter encodes req once and sends every node the same bytes (a nil req
// sends no body), decoding each answer into a T: a request crossing the
// router is marshalled once per round, however many shards there are.
func scatter[T any](c *Cluster, ctx context.Context, nodes []*node, method, path string, req any) ([]shardResult[T], error) {
	body, err := dmsapi.EncodeBody(req)
	if err != nil {
		return nil, err
	}
	return fanOut(c, ctx, nodes, func(ctx context.Context, n *node) (T, error) {
		var out T
		err := n.client.DoBody(ctx, method, path, body, &out)
		return out, err
	}), nil
}

// askOne posts req to one healthy shard, the next in round-robin order,
// and moves on to the one after it on any error — transport or status: a
// shard that missed the bootstrap answers 409 where its neighbour can
// answer. It serves the reads that depend only on the replicated
// clustering model, where every shard would return the same value, so the
// first answer is the answer. degraded reports (and counts) an answer
// that came without the whole membership behind it: a shard was ejected,
// or one asked before the one that answered did not. When none answers
// the error is mergeFailure's.
func askOne[T any](c *Cluster, ctx context.Context, op, path string, req any) (val T, degraded bool, err error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return val, false, errNoShards(op)
	}
	body, err := dmsapi.EncodeBody(req)
	if err != nil {
		return val, false, err
	}
	start := int(c.rr.Add(1)) % len(nodes)
	var refused []shardResult[T]
	for off := range nodes {
		n := nodes[(start+off)%len(nodes)]
		var out T
		err := n.client.DoBody(ctx, "POST", path, body, &out)
		if err == nil {
			c.noteSuccess(n)
			if degraded = c.partial(nodes, len(refused)); degraded {
				c.noteDegraded(ctx)
			}
			return out, degraded, nil
		}
		c.shardFailure(n, err)
		refused = append(refused, shardResult[T]{node: n, err: err})
	}
	return val, false, mergeFailure(refused, op)
}

// splitResults separates a fan-out into successes and failures.
func splitResults[T any](rs []shardResult[T]) (ok []shardResult[T], failed []shardResult[T]) {
	for _, r := range rs {
		if r.err == nil {
			ok = append(ok, r)
		} else {
			failed = append(failed, r)
		}
	}
	return ok, failed
}

// mergeFailure turns an all-shards-failed fan-out into the error the
// caller should see: a shard's own status response passes through
// verbatim (so 409/429/503 round-trip losslessly), and pure transport
// failure becomes a retryable 503.
func mergeFailure[T any](failed []shardResult[T], op string) error {
	for _, r := range failed {
		var se *dmsapi.StatusError
		if errors.As(r.err, &se) {
			return r.err
		}
	}
	msg := op + ": every shard failed"
	if len(failed) > 0 {
		msg = fmt.Sprintf("%s: every shard failed (shard %d: %v)", op, failed[0].node.idx, failed[0].err)
	}
	return &dmsapi.StatusError{
		Code:      http.StatusServiceUnavailable,
		ErrCode:   dmsapi.CodeDegraded,
		Message:   msg,
		Retryable: true,
	}
}

// errNoShards is the response when the healthy set is empty.
func errNoShards(op string) error {
	return &dmsapi.StatusError{
		Code:      http.StatusServiceUnavailable,
		ErrCode:   dmsapi.CodeUnavailable,
		Message:   op + ": no healthy shard",
		Retryable: true,
	}
}

// noteDegraded flags a merged response assembled without every shard,
// both on the cluster-wide counter and on the request's own trace, which
// is where the request pipeline's retention step looks — the single
// choke point every degraded merge passes through.
func (c *Cluster) noteDegraded(ctx context.Context) {
	c.degraded.Add(1)
	obs.FromContext(ctx).MarkDegraded()
}

// partial reports whether a fan-out over nodes with the given failure
// count covered less than the full membership: either a shard failed
// mid-request, or one was already ejected and never asked. Both mean
// the merge may be missing that shard's documents, so the response
// carries the Degraded flag.
func (c *Cluster) partial(nodes []*node, failed int) bool {
	return failed > 0 || len(nodes) < len(c.nodes)
}

// ---------------------------------------------------------------------------
// Bootstrap

// ensureFitted runs the coordinated bootstrap: the first ingest batch
// fits every healthy shard's clustering model on the same full batch
// through the idempotent clusters:fit endpoint. All shards share an
// embedder/k-means seed, so the replicated models agree and every
// scatter-gather reduction over them is exact. Serialized on bootMu —
// one router instance coordinates a given cluster's bootstrap (see
// docs/ARCHITECTURE.md for the multi-router caveat).
func (c *Cluster) ensureFitted(ctx context.Context, samples []dmsapi.Sample) error {
	if c.fitted.Load() || c.cfg.BootstrapK <= 0 {
		return nil
	}
	c.bootMu.Lock()
	defer c.bootMu.Unlock()
	if c.fitted.Load() {
		return nil
	}
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return errNoShards("fit")
	}
	ctx, sp := obs.StartSpan(ctx, "cluster_fit")
	defer sp.End()
	rs, err := scatter[dmsapi.FitResponse](c, ctx, nodes, "POST", dmsapi.PathFit,
		dmsapi.FitRequest{Samples: samples, K: c.cfg.BootstrapK})
	if err != nil {
		return err
	}
	ok, failed := splitResults(rs)
	if len(ok) == 0 {
		return mergeFailure(failed, "fit")
	}
	// Shards that missed the bootstrap (transport failure) stay ejected
	// until they answer probes again; they will hold an unfitted model
	// and answer not_fitted, which fan-out reads tolerate as a degraded
	// merge. Static membership means no automatic re-fit — see the
	// rebalance caveats in docs/ARCHITECTURE.md.
	if len(failed) > 0 {
		c.cfg.Logger.Warn("bootstrap fit incomplete", "fitted", len(ok), "shards", len(nodes))
	}
	c.fitted.Store(true)
	return nil
}

// ---------------------------------------------------------------------------
// Ingest (hash-routed)

// Ingest routes a batch across shards by content hash with per-shard
// sub-batching. A dead owner is routed around (ring successor); a
// sub-batch whose shard dies mid-request is rerouted once to the next
// healthy shard. Per-document failures ride the response's Errors array
// exactly like the single-node batch endpoint.
func (c *Cluster) Ingest(ctx context.Context, req dmsapi.IngestBatchRequest) (dmsapi.IngestBatchResponse, error) {
	resp := dmsapi.IngestBatchResponse{IDs: make([]string, len(req.Samples))}
	if len(req.Samples) == 0 {
		return resp, &dmsapi.StatusError{
			Code: http.StatusBadRequest, ErrCode: dmsapi.CodeBadRequest,
			Message: "ingest-batch: empty sample batch",
		}
	}
	if err := c.ensureFitted(ctx, req.Samples); err != nil {
		return resp, err
	}

	// Partition positions by the first healthy shard on each document's
	// successor list (fail-open around ejected owners).
	groups := make(map[int][]int)
	for i := range req.Samples {
		key := ContentKey(req.Samples[i].Data, req.Samples[i].Label)
		target := -1
		for _, si := range c.ring.Successors(key) {
			if c.nodes[si].healthy.Load() {
				target = si
				break
			}
		}
		if target < 0 {
			return resp, errNoShards("ingest")
		}
		groups[target] = append(groups[target], i)
	}

	ctx, sp := obs.StartSpan(ctx, "scatter_ingest")
	defer sp.End()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for target, positions := range groups {
		wg.Add(1)
		go func(target int, positions []int) {
			defer wg.Done()
			sub := dmsapi.IngestBatchRequest{Dataset: req.Dataset, Samples: make([]dmsapi.Sample, len(positions))}
			for j, pos := range positions {
				sub.Samples[j] = req.Samples[pos]
			}
			out, err := c.sendSubBatch(ctx, target, sub)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				// The whole sub-batch failed (both attempts): per-doc errors,
				// batch semantics preserved.
				for _, pos := range positions {
					resp.Errors = append(resp.Errors, dmsapi.DocError{Index: pos, Error: err.Error()})
				}
				return
			}
			for j, id := range out.IDs {
				resp.IDs[positions[j]] = id
			}
			for _, de := range out.Errors {
				resp.Errors = append(resp.Errors, dmsapi.DocError{Index: positions[de.Index], Error: de.Error})
			}
		}(target, positions)
	}
	wg.Wait()
	sort.Slice(resp.Errors, func(i, j int) bool { return resp.Errors[i].Index < resp.Errors[j].Index })
	for _, id := range resp.IDs {
		if id != "" {
			resp.Inserted++
		}
	}
	return resp, nil
}

// sendSubBatch sends one shard's sub-batch, rerouting once to the next
// healthy shard on a transport-level failure (fail-open: the documents
// land off their hash owner rather than being lost — content-hash
// lookup never depends on placement, only ingest balance does).
func (c *Cluster) sendSubBatch(ctx context.Context, target int, sub dmsapi.IngestBatchRequest) (dmsapi.IngestBatchResponse, error) {
	var out dmsapi.IngestBatchResponse
	body, err := dmsapi.EncodeBody(sub) // once, whichever shard ends up taking it
	if err != nil {
		return out, err
	}
	n := c.nodes[target]
	err = n.client.DoBody(ctx, "POST", dmsapi.PathIngestBatch, body, &out)
	if err == nil {
		c.noteSuccess(n)
		return out, nil
	}
	c.shardFailure(n, err)
	var se *dmsapi.StatusError
	if errors.As(err, &se) {
		return out, err // the shard answered; rerouting would duplicate semantics, not fix them
	}
	for off := 1; off < len(c.nodes); off++ {
		alt := c.nodes[(target+off)%len(c.nodes)]
		if !alt.healthy.Load() {
			continue
		}
		c.reroutes.Add(1)
		c.cfg.Logger.Warn("rerouting ingest sub-batch",
			"docs", len(sub.Samples), "from_shard", target, "to_shard", alt.idx)
		if err2 := alt.client.DoBody(ctx, "POST", dmsapi.PathIngestBatch, body, &out); err2 == nil {
			c.noteSuccess(alt)
			return out, nil
		} else {
			c.shardFailure(alt, err2)
			err = err2
		}
		break // one reroute hop: bounded work under cascading failure
	}
	return out, err
}

// ---------------------------------------------------------------------------
// Fan-out reads

// Certainty asks one shard. The clustering model is replicated and the
// computation is model-only, so every shard would return the same value;
// Degraded records only that the membership was not whole, or that a
// shard asked before the one that answered did not.
func (c *Cluster) Certainty(ctx context.Context, req dmsapi.CertaintyRequest) (dmsapi.CertaintyResponse, error) {
	ctx, sp := obs.StartSpan(ctx, "scatter_certainty")
	defer sp.End()
	resp, degraded, err := askOne[dmsapi.CertaintyResponse](c, ctx, "certainty", dmsapi.PathCertainty, req)
	resp.Degraded = degraded
	return resp, err
}

// PDF asks one shard, as Certainty does and for the same reason.
func (c *Cluster) PDF(ctx context.Context, req dmsapi.PDFRequest) (dmsapi.PDFResponse, error) {
	ctx, sp := obs.StartSpan(ctx, "scatter_pdf")
	defer sp.End()
	resp, degraded, err := askOne[dmsapi.PDFResponse](c, ctx, "pdf", dmsapi.PathPDF, req)
	resp.Degraded = degraded
	return resp, err
}

// Nearest scatters nearest-neighbor matching and merges by per-sample
// minimum distance — with replicated embedder and clustering models the
// union of per-shard minima is exactly the single-node answer. Distinct
// matching resolves iteratively: fan out without distinctness, commit
// matches greedily in input order until the first intra-round conflict,
// then re-query the unresolved tail with the committed document IDs
// excluded. The committed prefix is provably what a single node's greedy
// pass would produce, and each round commits at least one sample, so the
// loop is bounded by the sample count (conflicts are rare in practice).
func (c *Cluster) Nearest(ctx context.Context, req dmsapi.NearestRequest) (dmsapi.NearestResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.NearestResponse{}, errNoShards("nearest")
	}
	ctx, sp := obs.StartSpan(ctx, "scatter_nearest")
	defer sp.End()

	out := make([]dmsapi.Match, len(req.Samples))
	exclude := append([]string(nil), req.Exclude...)
	pending := make([]int, len(req.Samples))
	for i := range pending {
		pending[i] = i
	}
	degraded := c.partial(nodes, 0)

	for round := 0; len(pending) > 0; round++ {
		if round > len(req.Samples) {
			return dmsapi.NearestResponse{}, &dmsapi.StatusError{
				Code: http.StatusInternalServerError, ErrCode: dmsapi.CodeInternal,
				Message: "nearest: distinct merge failed to converge",
			}
		}
		sub := dmsapi.NearestRequest{Samples: make([]dmsapi.Sample, len(pending)), Exclude: exclude}
		for j, pos := range pending {
			sub.Samples[j] = req.Samples[pos]
		}
		rs, err := scatter[dmsapi.NearestResponse](c, ctx, c.healthyNodes(), "POST", dmsapi.PathNearest, sub)
		if err != nil {
			return dmsapi.NearestResponse{}, err
		}
		ok, failed := splitResults(rs)
		if len(ok) == 0 {
			return dmsapi.NearestResponse{}, mergeFailure(failed, "nearest")
		}
		degraded = degraded || len(failed) > 0

		// Per-sample minimum across shards.
		best := make([]dmsapi.Match, len(pending))
		for _, r := range ok {
			if len(r.val.Matches) != len(pending) {
				continue
			}
			for j, m := range r.val.Matches {
				if m.Found && (!best[j].Found || m.Dist < best[j].Dist) {
					best[j] = m
				}
			}
		}

		if !req.Distinct {
			for j, pos := range pending {
				out[pos] = best[j]
			}
			break
		}

		// Greedy prefix commit: stop at the first conflict within this
		// round; everything after it re-queries with the grown exclusion.
		conflictAt := -1
		roundTaken := make(map[string]bool)
		for j, pos := range pending {
			m := best[j]
			if !m.Found {
				out[pos] = m
				continue
			}
			if roundTaken[m.DocID] {
				conflictAt = j
				break
			}
			roundTaken[m.DocID] = true
			exclude = append(exclude, m.DocID)
			out[pos] = m
		}
		if conflictAt < 0 {
			pending = nil
		} else {
			pending = pending[conflictAt:]
		}
	}

	if degraded {
		c.noteDegraded(ctx)
	}
	return dmsapi.NearestResponse{Matches: out, Degraded: degraded}, nil
}

// Lookup reproduces single-node lookup semantics across the partition in
// two scatter rounds over one membership snapshot. Draw: every healthy
// shard apportions the request over the clusters (from the replicated
// model, so the counts agree) and returns, per occupied cluster, its own
// count lowest-ranked IDs under the router's seed; the count lowest of
// their union — the ranks recomputed here with docstore.DrawRank — are
// exactly what one node holding every document would draw, because the n
// lowest of a union are among the n lowest of each part. Fetch: each
// drawn ID is read from the shard that returned it. Per-cluster counts
// therefore match the single-node result on the same corpus; the concrete
// IDs differ only by namespace. Degraded is set when a shard was ejected
// or failed either round, when a shard's counts disagreed (missed
// bootstrap, divergent K) and it was left out, and when a drawn document
// was gone by the fetch.
func (c *Cluster) Lookup(ctx context.Context, req dmsapi.LookupRequest) (dmsapi.LookupResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.LookupResponse{}, errNoShards("lookup")
	}
	ctx, sp := obs.StartSpan(ctx, "scatter_lookup")
	defer sp.End()

	draws, err := scatter[dmsapi.DrawResponse](c, ctx, nodes, "POST", dmsapi.PathDraw,
		dmsapi.DrawRequest{Samples: req.Samples, Seed: c.cfg.Seed})
	if err != nil {
		return dmsapi.LookupResponse{}, err
	}
	ok, failed := splitResults(draws)
	if len(ok) == 0 {
		return dmsapi.LookupResponse{}, mergeFailure(failed, "lookup")
	}
	degraded := c.partial(nodes, len(failed))
	counts := ok[0].val.Counts
	agree := ok[:0]
	for _, r := range ok {
		if slices.Equal(r.val.Counts, counts) && len(r.val.IDs) == len(counts) {
			agree = append(agree, r)
		} else {
			degraded = true
		}
	}

	// Merge each cluster's draw and group it by owning shard.
	type pick struct {
		rank  uint64
		id    string
		owner *node
	}
	perShard := make(map[*node][]string)
	drawOrder := make([][]string, len(counts))
	var picks []pick
	for k, want := range counts {
		picks = picks[:0]
		for _, r := range agree {
			for _, id := range r.val.IDs[k] {
				picks = append(picks, pick{docstore.DrawRank(c.cfg.Seed+int64(k), id), id, r.node})
			}
		}
		sort.Slice(picks, func(i, j int) bool {
			if picks[i].rank != picks[j].rank {
				return picks[i].rank < picks[j].rank
			}
			return picks[i].id < picks[j].id
		})
		for i, p := range picks {
			if len(drawOrder[k]) == want {
				break
			}
			if i > 0 && p.id == picks[i-1].id {
				continue // shards sharing an ID namespace (dmsd without -node-id): one owner wins
			}
			drawOrder[k] = append(drawOrder[k], p.id)
			perShard[p.owner] = append(perShard[p.owner], p.id)
		}
		sort.Strings(drawOrder[k])
	}

	// Fetch the draws from their owners: the one round whose bodies differ
	// by shard, each its own ID list.
	var owners []*node
	fetch := make(map[*node]dmsapi.Body)
	for _, r := range agree {
		if len(perShard[r.node]) > 0 {
			owners = append(owners, r.node)
			if fetch[r.node], err = dmsapi.EncodeBody(dmsapi.SamplesRequest{IDs: perShard[r.node], Partial: true}); err != nil {
				return dmsapi.LookupResponse{}, err
			}
		}
	}
	fetched := make(map[string]dmsapi.Sample)
	for _, r := range fanOut(c, ctx, owners, func(ctx context.Context, n *node) (dmsapi.SamplesResponse, error) {
		var o dmsapi.SamplesResponse
		err := n.client.DoBody(ctx, "POST", dmsapi.PathSamples, fetch[n], &o)
		return o, err
	}) {
		if r.err != nil || len(r.val.Missing) > 0 {
			degraded = true
		}
		// Partial mode skips misses, so align by walking the request IDs
		// against the response order minus the missing set.
		missing := make(map[string]bool, len(r.val.Missing))
		for _, id := range r.val.Missing {
			missing[id] = true
		}
		j := 0
		for _, id := range perShard[r.node] {
			if !missing[id] && j < len(r.val.Samples) {
				fetched[id] = r.val.Samples[j]
				j++
			}
		}
	}

	// Assemble in cluster order, sorted IDs within each cluster — the
	// single-node assembly order.
	resp := dmsapi.LookupResponse{Degraded: degraded}
	for k := range drawOrder {
		for _, id := range drawOrder[k] {
			if s, ok := fetched[id]; ok {
				resp.Samples = append(resp.Samples, s)
			}
		}
	}
	if len(resp.Samples) == 0 {
		return resp, &dmsapi.StatusError{
			Code: http.StatusInternalServerError, ErrCode: dmsapi.CodeInternal,
			Message: "lookup: no labeled historical data matches the input distribution",
		}
	}
	if degraded {
		c.noteDegraded(ctx)
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// Model plane (replicated)

// AddModel replicates a model registration to every healthy shard, so
// recommend/checkpoint/train stay local wherever they land. A shard
// answering duplicate counts as replicated (idempotent re-registration);
// the call fails only when no shard accepted or already had it.
func (c *Cluster) AddModel(ctx context.Context, req dmsapi.AddModelRequest) (dmsapi.ModelInfo, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.ModelInfo{}, errNoShards("models")
	}
	ctx, sp := obs.StartSpan(ctx, "replicate_model")
	defer sp.End()
	rs, err := scatter[dmsapi.ModelInfo](c, ctx, nodes, "POST", dmsapi.PathModels, req)
	if err != nil {
		return dmsapi.ModelInfo{}, err
	}
	var firstErr error
	accepted, duplicates := 0, 0
	info := dmsapi.ModelInfo{ID: req.ID, K: len(req.PDF), Meta: req.Meta}
	for _, r := range rs {
		switch {
		case r.err == nil:
			accepted++
			info = r.val
		case errors.Is(r.err, dmsapi.ErrDuplicateModel):
			duplicates++
		case firstErr == nil:
			firstErr = r.err
		}
	}
	if accepted > 0 {
		if accepted+duplicates < len(nodes) {
			c.cfg.Logger.Warn("model replication incomplete",
				"model", req.ID, "replicated", accepted+duplicates, "shards", len(nodes))
		}
		return info, nil
	}
	if duplicates == len(nodes) {
		// Uniform duplicate: pass the conflict through losslessly.
		for _, r := range rs {
			if errors.Is(r.err, dmsapi.ErrDuplicateModel) {
				return dmsapi.ModelInfo{}, r.err
			}
		}
	}
	if firstErr != nil {
		return dmsapi.ModelInfo{}, firstErr
	}
	return dmsapi.ModelInfo{}, mergeFailure(rs, "models")
}

// Models lists the union of every healthy shard's zoo (deduplicated by
// ID, ordered by registration time).
func (c *Cluster) Models(ctx context.Context) (dmsapi.ModelsResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.ModelsResponse{}, errNoShards("models")
	}
	rs, err := scatter[dmsapi.ModelsResponse](c, ctx, nodes, "GET", dmsapi.PathModels, nil)
	if err != nil {
		return dmsapi.ModelsResponse{}, err
	}
	ok, failed := splitResults(rs)
	if len(ok) == 0 {
		return dmsapi.ModelsResponse{}, mergeFailure(failed, "models")
	}
	seen := make(map[string]bool)
	var models []dmsapi.ModelInfo
	for _, r := range ok {
		for _, m := range r.val.Models {
			if !seen[m.ID] {
				seen[m.ID] = true
				models = append(models, m)
			}
		}
	}
	sort.Slice(models, func(i, j int) bool {
		if !models[i].AddedAt.Equal(models[j].AddedAt) {
			return models[i].AddedAt.Before(models[j].AddedAt)
		}
		return models[i].ID < models[j].ID
	})
	return dmsapi.ModelsResponse{Models: models}, nil
}

// Recommend scatters the recommendation and keeps the best answer
// (lowest JSD among OK responses) — with replicated zoos every shard
// agrees, and a train-produced model that exists on only one shard is
// still found by the fan-out.
func (c *Cluster) Recommend(ctx context.Context, req dmsapi.RecommendRequest) (dmsapi.RecommendResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.RecommendResponse{}, errNoShards("recommend")
	}
	ctx, sp := obs.StartSpan(ctx, "scatter_recommend")
	defer sp.End()
	rs, err := scatter[dmsapi.RecommendResponse](c, ctx, nodes, "POST", dmsapi.PathRecommend, req)
	if err != nil {
		return dmsapi.RecommendResponse{}, err
	}
	ok, failed := splitResults(rs)
	if len(ok) == 0 {
		return dmsapi.RecommendResponse{}, mergeFailure(failed, "recommend")
	}
	best := dmsapi.RecommendResponse{}
	for _, r := range ok {
		v := r.val
		switch {
		case v.OK && (!best.OK || v.JSD < best.JSD):
			best = v
		case !best.OK && !v.OK && v.JSD > 0 && (best.JSD == 0 || v.JSD < best.JSD):
			best.JSD = v.JSD // closest-but-rejected divergence, for diagnostics
		}
	}
	best.Degraded = c.partial(nodes, len(failed))
	if best.Degraded {
		c.noteDegraded(ctx)
	}
	return best, nil
}

// Checkpoint fetches a model's weights from the first shard that has
// them (replicated models live everywhere; train-produced ones on their
// training shard).
func (c *Cluster) Checkpoint(ctx context.Context, id string) ([]byte, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return nil, errNoShards("checkpoint")
	}
	path := strings.Replace(dmsapi.PathCheckpoint, "{id}", url.PathEscape(id), 1)
	var lastErr error
	for _, n := range nodes {
		blob, err := n.client.DoRaw(ctx, "GET", path, nil)
		if err == nil {
			c.noteSuccess(n)
			return blob, nil
		}
		c.shardFailure(n, err)
		lastErr = err
		if !errors.Is(err, dmsapi.ErrNotFound) {
			var se *dmsapi.StatusError
			if errors.As(err, &se) {
				return nil, err // a real status answer other than 404: stop
			}
		}
	}
	return nil, lastErr
}

// ---------------------------------------------------------------------------
// Training plane (job affinity via ID prefix)

// trainPrefix tags a job ID with its shard ("s2!<id>"): training jobs
// have shard affinity, and the prefix routes every status poll and
// cancel to the right shard without a lookup table. '!' is path-safe
// and cannot appear in trainer IDs.
func trainPrefix(shard int, id string) string {
	return "s" + strconv.Itoa(shard) + "!" + id
}

// splitTrainID reverses trainPrefix.
func (c *Cluster) splitTrainID(id string) (*node, string, error) {
	rest, found := strings.CutPrefix(id, "s")
	if found {
		if si, raw, ok := strings.Cut(rest, "!"); ok {
			if idx, err := strconv.Atoi(si); err == nil && idx >= 0 && idx < len(c.nodes) {
				return c.nodes[idx], raw, nil
			}
		}
	}
	return nil, "", &dmsapi.StatusError{
		Code: http.StatusNotFound, ErrCode: dmsapi.CodeNotFound,
		Message: fmt.Sprintf("train: job id %q carries no shard tag", id),
	}
}

// SubmitTrain places a training job on one healthy shard (round-robin),
// trying the next shard on transport failure. The returned job ID is
// shard-tagged for later polls.
func (c *Cluster) SubmitTrain(ctx context.Context, req dmsapi.TrainRequest) (dmsapi.TrainJob, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.TrainJob{}, errNoShards("train")
	}
	body, err := dmsapi.EncodeBody(req)
	if err != nil {
		return dmsapi.TrainJob{}, err
	}
	start := int(c.rr.Add(1)) % len(nodes)
	var lastErr error
	for off := 0; off < len(nodes); off++ {
		n := nodes[(start+off)%len(nodes)]
		var job dmsapi.TrainJob
		err := n.client.DoBody(ctx, "POST", dmsapi.PathTrain, body, &job)
		if err == nil {
			c.noteSuccess(n)
			job.ID = trainPrefix(n.idx, job.ID)
			return job, nil
		}
		c.shardFailure(n, err)
		lastErr = err
		var se *dmsapi.StatusError
		if errors.As(err, &se) {
			return dmsapi.TrainJob{}, err // queue-full 429 etc. pass through
		}
	}
	return dmsapi.TrainJob{}, lastErr
}

// TrainJob fetches one job's status from its shard. A positive wait is
// forwarded as the shard's wait= long-poll, at most half the per-shard
// timeout so the shard answers before the exchange gives up.
func (c *Cluster) TrainJob(ctx context.Context, id string, wait time.Duration) (dmsapi.TrainJob, error) {
	n, raw, err := c.splitTrainID(id)
	if err != nil {
		return dmsapi.TrainJob{}, err
	}
	var job dmsapi.TrainJob
	path := dmsapi.TrainJobPath(raw, min(wait, shardTimeout/2))
	if err := n.client.DoJSON(ctx, "GET", path, nil, &job); err != nil {
		c.shardFailure(n, err)
		return dmsapi.TrainJob{}, err
	}
	c.noteSuccess(n)
	job.ID = trainPrefix(n.idx, job.ID)
	return job, nil
}

// CancelTrain cancels a job on its shard.
func (c *Cluster) CancelTrain(ctx context.Context, id string) (dmsapi.TrainJob, error) {
	n, raw, err := c.splitTrainID(id)
	if err != nil {
		return dmsapi.TrainJob{}, err
	}
	var job dmsapi.TrainJob
	path := strings.Replace(dmsapi.PathTrainCancel, "{id}", url.PathEscape(raw), 1)
	if err := n.client.DoJSON(ctx, "POST", path, struct{}{}, &job); err != nil {
		c.shardFailure(n, err)
		return dmsapi.TrainJob{}, err
	}
	c.noteSuccess(n)
	job.ID = trainPrefix(n.idx, job.ID)
	return job, nil
}

// TrainJobs lists every shard's jobs (shard-tagged IDs, submission
// order).
func (c *Cluster) TrainJobs(ctx context.Context) (dmsapi.TrainListResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.TrainListResponse{}, errNoShards("train")
	}
	rs, err := scatter[dmsapi.TrainListResponse](c, ctx, nodes, "GET", dmsapi.PathTrain, nil)
	if err != nil {
		return dmsapi.TrainListResponse{}, err
	}
	ok, failed := splitResults(rs)
	if len(ok) == 0 {
		return dmsapi.TrainListResponse{}, mergeFailure(failed, "train")
	}
	var jobs []dmsapi.TrainJob
	for _, r := range ok {
		for _, j := range r.val.Jobs {
			j.ID = trainPrefix(r.node.idx, j.ID)
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].SubmittedAt.Before(jobs[j].SubmittedAt) })
	return dmsapi.TrainListResponse{Jobs: jobs}, nil
}

// ---------------------------------------------------------------------------
// Health

// Health aggregates shard health: sample counts sum across the
// partition, the cluster count and zoo size are replicated maxima, the
// fit id is reported only while every answering shard serves the same
// one, and the status degrades (not fails) while any shard is out.
func (c *Cluster) Health(ctx context.Context) (dmsapi.HealthResponse, error) {
	nodes := c.healthyNodes()
	if len(nodes) == 0 {
		return dmsapi.HealthResponse{}, errNoShards("health")
	}
	rs, err := scatter[dmsapi.HealthResponse](c, ctx, nodes, "GET", dmsapi.PathHealth, nil)
	if err != nil {
		return dmsapi.HealthResponse{}, err
	}
	ok, failed := splitResults(rs)
	if len(ok) == 0 {
		return dmsapi.HealthResponse{}, mergeFailure(failed, "health")
	}
	out := dmsapi.HealthResponse{Status: "ok", Fit: ok[0].val.Fit}
	for _, r := range ok {
		if r.val.Fit != out.Fit {
			out.Fit = ""
		}
		out.Samples += r.val.Samples
		out.K = max(out.K, r.val.K)
		out.Models = max(out.Models, r.val.Models)
	}
	if len(failed) > 0 || len(ok) < len(c.nodes) {
		out.Status = "degraded"
	}
	return out, nil
}
