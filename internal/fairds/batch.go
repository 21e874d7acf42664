package fairds

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/obs"
	"fairdms/internal/tensor"
)

// BatchDocError reports one document that could not be ingested within a
// batch. The rest of the batch is unaffected: partial failure is per
// document, not per call.
type BatchDocError struct {
	Index int   // position in the input batch
	Err   error // why this document was rejected
}

// BatchResult is the outcome of IngestLabeledBatch. IDs is aligned with the
// input batch ("" where the document failed); Errors lists the failures in
// ascending input order.
type BatchResult struct {
	IDs    []string
	Errors []BatchDocError
}

// Inserted reports how many documents were committed to the store.
func (r BatchResult) Inserted() int {
	n := 0
	for _, id := range r.IDs {
		if id != "" {
			n++
		}
	}
	return n
}

// BatchOptions tunes the batch-ingest pipeline. The zero value picks
// sensible defaults.
type BatchOptions struct {
	// ChunkSize is the number of documents per embed→store unit (default
	// 512). Each chunk is embedded as one tensor and written with one
	// InsertMany, so it bounds both peak memory and store-call granularity.
	ChunkSize int
	// Workers is the number of chunk pipelines running in parallel (default
	// GOMAXPROCS, capped at the chunk count). Each worker embeds its chunk
	// while other workers' chunks are being written, which is what overlaps
	// CPU (embedding) with store latency.
	Workers int
}

func (o *BatchOptions) defaults() {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 512
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// IngestLabeledBatch is the high-throughput form of IngestLabeled: the batch
// is split into chunks, parallel workers embed each chunk (one embedder
// pass per chunk; the Embedder contract requires concurrent Embed to be
// safe), assign clusters, and feed chunked InsertMany calls — so embedding
// of one chunk overlaps the store write of another instead of the strict
// embed-everything-then-write-everything of the single-call path.
//
// Failure is reported per document: a sample whose feature width disagrees
// with the service's (a *WidthError; a service that has no width yet takes
// the first sample's) or whose payload cannot be encoded gets a
// BatchDocError while the rest of the batch commits. A store write failure
// fails only that chunk's documents. The returned error is reserved for
// whole-call problems (unfitted clustering model).
func (s *Service) IngestLabeledBatch(samples []*codec.Sample, dataset string, opt BatchOptions) (BatchResult, error) {
	return s.IngestLabeledBatchContext(context.Background(), samples, dataset, opt)
}

// IngestLabeledBatchContext is IngestLabeledBatch with a context carrying
// an optional obs trace: each chunk records encode, embed, store_insert,
// and index_add spans, so a slow batch shows which stage of which chunk
// dominated (chunks run concurrently; their spans interleave under the
// request span).
func (s *Service) IngestLabeledBatchContext(ctx context.Context, samples []*codec.Sample, dataset string, opt BatchOptions) (BatchResult, error) {
	if err := s.requireClusters(); err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{IDs: make([]string, len(samples))}
	if len(samples) == 0 {
		return res, nil
	}
	// The reference width is the service's, and for a service that has none
	// yet the first non-nil sample's, which the first chunk to embed claims
	// (nil docs are in-contract: they become per-doc errors in ingestChunk).
	// An all-nil batch falls through with refWidth 0 and every doc reported.
	refWidth := int(s.width.Load())
	if refWidth == 0 {
		for _, smp := range samples {
			if smp != nil {
				refWidth = smp.Elems()
				break
			}
		}
	}

	opt.defaults()
	type chunkSpan struct{ lo, hi int }
	var spans []chunkSpan
	for lo := 0; lo < len(samples); lo += opt.ChunkSize {
		hi := lo + opt.ChunkSize
		if hi > len(samples) {
			hi = len(samples)
		}
		spans = append(spans, chunkSpan{lo, hi})
	}
	if opt.Workers > len(spans) {
		opt.Workers = len(spans)
	}

	var (
		mu   sync.Mutex // guards res.Errors (res.IDs is index-disjoint per chunk)
		wg   sync.WaitGroup
		work = make(chan chunkSpan)
	)
	fail := func(idx int, err error) {
		mu.Lock()
		res.Errors = append(res.Errors, BatchDocError{Index: idx, Err: err})
		mu.Unlock()
	}

	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for span := range work {
				s.ingestChunk(ctx, samples, span.lo, span.hi, refWidth, dataset, res.IDs, fail)
			}
		}()
	}
	for _, span := range spans {
		work <- span
	}
	close(work)
	wg.Wait()

	sort.Slice(res.Errors, func(i, j int) bool { return res.Errors[i].Index < res.Errors[j].Index })
	return res, nil
}

// ingestChunk runs one chunk through validate→encode→embed→insert→index.
// ids is the batch-wide result slice; this chunk only writes its own span.
func (s *Service) ingestChunk(ctx context.Context, samples []*codec.Sample, lo, hi, refWidth int, dataset string, ids []string, fail func(int, error)) {
	// Per-document validation and payload encoding. A bad document is
	// reported and dropped; the chunk carries on with the survivors.
	_, sp := obs.StartSpan(ctx, "encode")
	valid := make([]int, 0, hi-lo)       // original indices of surviving docs
	payloads := make([][]byte, 0, hi-lo) // encoded payloads, parallel to valid
	for i := lo; i < hi; i++ {
		smp := samples[i]
		if smp == nil {
			fail(i, fmt.Errorf("fairds: nil sample"))
			continue
		}
		if smp.Elems() != refWidth {
			fail(i, &WidthError{Got: smp.Elems(), Want: refWidth})
			continue
		}
		if err := smp.Validate(); err != nil {
			fail(i, fmt.Errorf("fairds: invalid sample: %w", err))
			continue
		}
		raw, err := s.cfg.Codec.Encode(smp)
		if err != nil {
			fail(i, fmt.Errorf("fairds: encoding sample: %w", err))
			continue
		}
		valid = append(valid, i)
		payloads = append(payloads, raw)
	}
	sp.End()
	if len(valid) == 0 {
		return
	}

	// One embedder pass for the chunk's survivors. FloatsInto decodes each
	// payload straight into its tensor row — no per-document scratch slice.
	_, sp = obs.StartSpan(ctx, "embed")
	x := tensor.Borrow(len(valid), refWidth)
	for row, i := range valid {
		samples[i].FloatsInto(x.Row(row))
	}
	rows, err := s.embedRows(x)
	tensor.Release(x)
	if err != nil {
		// Another request gave the service another width meanwhile.
		sp.End()
		for _, i := range valid {
			fail(i, err)
		}
		return
	}
	s.claimWidth(refWidth)
	assign := s.km.Predict(rows)
	sp.End()

	fields := make([]docstore.Fields, len(valid))
	for row := range valid {
		fields[row] = docstore.Fields{
			"payload":   payloads[row],
			"cluster":   assign[row],
			"embedding": rows[row],
			"dataset":   dataset,
		}
	}
	_, sp = obs.StartSpan(ctx, "store_insert")
	var chunkIDs []string
	if ts, ok := s.store.(TxnStore); ok {
		// One transaction per chunk: on a WAL-durable store the chunk is
		// one commit record (durable and atomic as a unit), and on any
		// store readers never observe a half-ingested chunk.
		ops := make([]docstore.TxnOp, len(fields))
		for row, f := range fields {
			ops[row] = docstore.TxnOp{Kind: docstore.TxnAdd, F: f}
		}
		chunkIDs, err = ts.ApplyTxn(ops)
	} else {
		chunkIDs, err = s.store.InsertMany(fields)
	}
	sp.End()
	if err != nil {
		// InsertMany is atomic per chunk: nothing from this chunk landed.
		err = fmt.Errorf("fairds: storing chunk: %w", err)
		for _, i := range valid {
			fail(i, err)
		}
		return
	}
	for row, i := range valid {
		ids[i] = chunkIDs[row]
	}
	// Same cold-index rule as IngestLabeled: a cold index needs a wholesale
	// WarmIndex/Reindex anyway, so only a ready index is maintained inline.
	if s.indexReady() {
		_, sp = obs.StartSpan(ctx, "index_add")
		for row := range valid {
			if err := s.idx.Add(chunkIDs[row], assign[row], rows[row]); err != nil {
				s.noteCorrupt(chunkIDs[row], err)
			}
		}
		sp.End()
	}
}
