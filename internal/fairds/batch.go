package fairds

import (
	"context"
	"errors"
	"fmt"
	"slices"

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

// BatchResult is the outcome of IngestLabeledBatchContext. IDs is aligned
// with the input batch ("" where the document failed); Errors lists the
// failures in ascending input order.
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

// BatchOptions has no fields: a batch ingest is one embed pass and one
// store commit whatever its size, so there is nothing to tune. It stays in
// IngestLabeledBatchContext's signature only because the benchmark module
// passes BatchOptions{}; the next edit of that module drops both.
type BatchOptions struct{}

// IngestLabeled (system plane) embeds labeled samples, assigns clusters,
// and stores them with payload, embedding, cluster ID, and dataset tag —
// building the index as data are written, which is what makes later label
// lookups cheap.
func (s *Service) IngestLabeled(samples []*codec.Sample, dataset string) ([]string, error) {
	return s.IngestLabeledContext(context.Background(), samples, dataset)
}

// IngestLabeledContext is IngestLabeled with a context carrying an
// optional obs trace; stage spans (encode, embed, store_insert,
// index_add) attach to it. The database/sql QueryContext convention:
// serving paths call the Context form, batch/offline callers keep the
// plain one.
//
// The call is all or nothing. A document that fails its checks — nil, of
// another width (a *WidthError), with an invalid payload, or one the codec
// cannot encode — fails the call before anything is written, and the
// error names the lowest such index. The store commit is one transaction.
func (s *Service) IngestLabeledContext(ctx context.Context, samples []*codec.Sample, dataset string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.requireClusters(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, nil
	}
	p := s.prepare(ctx, samples)
	if len(p.errs) > 0 {
		de := p.errs[0]
		return nil, fmt.Errorf("fairds: sample %d: %w", de.Index, de.Err)
	}
	ids := make([]string, len(samples))
	if err := s.commit(ctx, samples, p, dataset, ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// IngestLabeledBatchContext is IngestLabeledContext with failure reported
// per document: a document that fails its checks gets a BatchDocError and
// the rest of the batch commits, as one transaction. A failed commit fails
// every surviving document and stores none of them. The returned error is
// reserved for whole-call problems (unfitted clustering model).
func (s *Service) IngestLabeledBatchContext(ctx context.Context, samples []*codec.Sample, dataset string, _ BatchOptions) (BatchResult, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.requireClusters(); err != nil {
		return BatchResult{}, err
	}
	res := BatchResult{IDs: make([]string, len(samples))}
	if len(samples) == 0 {
		return res, nil
	}
	p := s.prepare(ctx, samples)
	res.Errors = p.errs
	if err := s.commit(ctx, samples, p, dataset, res.IDs); err != nil {
		for _, i := range p.valid {
			res.Errors = append(res.Errors, BatchDocError{Index: i, Err: err})
		}
		slices.SortFunc(res.Errors, func(a, b BatchDocError) int { return a.Index - b.Index })
	}
	return res, nil
}

// prepared is an ingest call after its per-document checks: the width
// the survivors share, their input indices and encoded payloads, and one
// error per rejected document in ascending input order.
type prepared struct {
	width    int
	valid    []int
	payloads [][]byte // parallel to valid
	errs     []BatchDocError
}

// prepare checks and encodes every document of an ingest call. The
// reference width is the service's, and for a service that has none yet
// the first non-nil sample's, which the commit then claims. An all-nil
// call has reference width 0 and every document reported.
func (s *Service) prepare(ctx context.Context, samples []*codec.Sample) prepared {
	_, sp := obs.StartSpan(ctx, "encode")
	defer sp.End()
	p := prepared{
		width:    int(s.width.Load()),
		valid:    make([]int, 0, len(samples)),
		payloads: make([][]byte, 0, len(samples)),
	}
	if p.width == 0 {
		for _, smp := range samples {
			if smp != nil {
				p.width = smp.Elems()
				break
			}
		}
	}
	for i, smp := range samples {
		if smp == nil {
			p.errs = append(p.errs, BatchDocError{Index: i, Err: errors.New("fairds: nil sample")})
			continue
		}
		if smp.Elems() != p.width {
			p.errs = append(p.errs, BatchDocError{Index: i, Err: &WidthError{Got: smp.Elems(), Want: p.width}})
			continue
		}
		if err := smp.Validate(); err != nil {
			p.errs = append(p.errs, BatchDocError{Index: i, Err: fmt.Errorf("fairds: invalid sample: %w", err)})
			continue
		}
		raw, err := s.cfg.Codec.Encode(smp)
		if err != nil {
			p.errs = append(p.errs, BatchDocError{Index: i, Err: fmt.Errorf("fairds: encoding sample: %w", err)})
			continue
		}
		p.valid = append(p.valid, i)
		p.payloads = append(p.payloads, raw)
	}
	return p
}

// commit embeds the prepared survivors in one pass, assigns their
// clusters, stores them with one InsertMany — one transaction, and one WAL
// commit record on a durable store, so a call is stored whole or not at
// all, on disk and on each lock stripe — and writes their IDs into ids at
// their input indices.
//
// lint:holds s.mu
func (s *Service) commit(ctx context.Context, samples []*codec.Sample, p prepared, dataset string, ids []string) error {
	if len(p.valid) == 0 {
		return nil
	}
	// FloatsInto decodes each sample straight into its row of a pooled
	// tensor — no per-document scratch slice.
	_, sp := obs.StartSpan(ctx, "embed")
	x := tensor.Borrow(len(p.valid), p.width)
	for row, i := range p.valid {
		samples[i].FloatsInto(x.Row(row))
	}
	rows, err := s.embedRows(s.embedder, x)
	tensor.Release(x)
	if err != nil {
		// Another request gave the service another width meanwhile.
		sp.End()
		return err
	}
	s.claimWidth(p.width)
	assign := s.km.Predict(rows)
	sp.End()

	fields := make([]docstore.Fields, len(p.valid))
	for row := range p.valid {
		fields[row] = docstore.Fields{
			"payload":   p.payloads[row],
			"cluster":   assign[row],
			"embedding": rows[row],
			"dataset":   dataset,
		}
	}
	_, sp = obs.StartSpan(ctx, "store_insert")
	stored, err := s.store.InsertMany(fields)
	sp.End()
	if err != nil {
		return fmt.Errorf("fairds: storing samples: %w", err)
	}
	for row, i := range p.valid {
		ids[i] = stored[row]
	}
	_, sp = obs.StartSpan(ctx, "index_add")
	for row, id := range stored {
		if s.idx.Add(id, assign[row], rows[row]) != nil {
			// The store write already succeeded; a document the index
			// refuses (a dimension mismatch) is stored but never matched.
			s.corrupt.Add(1)
		}
	}
	sp.End()
	return nil
}
