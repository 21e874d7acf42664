// Package fairms implements the FAIR Model Service (paper Fig. 4, §II-B):
// a Model Zoo that indexes every trained checkpoint by the cluster PDF of
// its training dataset, and a Model Manager that ranks zoo entries against
// a new dataset's PDF by Jensen–Shannon divergence, recommending the
// closest model as the foundation for fine-tuning. A user-defined JSD
// threshold falls back to train-from-scratch when no historical model is
// close enough (§II-C).
//
// A zoo opened over a document store (OpenZoo) keeps every model as one
// document there — written before the model is published in memory, read
// back in insertion order on the next open — so the zoo is logged,
// checkpointed and recovered by whatever makes the store durable. NewZoo
// is the store-less, memory-only form.
package fairms

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairdms/internal/docstore"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
)

// Reserved Meta keys. The lineage keys are written by the server-side
// trainer (internal/trainer) when it registers a checkpoint — the
// model-provenance lineage of the FAIR-for-HEDM follow-up. They travel
// inside Record.Meta, so a model document carries them across a restart;
// the typed accessors on Record read them back.
const (
	// MetaParent is the zoo ID of the checkpoint this model was
	// warm-started from ("" / absent for a cold start).
	MetaParent = "parent"
	// MetaEpochs is the number of training epochs actually run, as a
	// decimal integer.
	MetaEpochs = "epochs"
	// MetaConvergedAt is the 1-based epoch whose validation loss first met
	// the target loss, as a decimal integer; absent when no target was set
	// or it was never reached.
	MetaConvergedAt = "converged_at"
	// MetaWarmStart is "true" when the model was fine-tuned from a parent
	// checkpoint and "false" for a from-scratch run.
	MetaWarmStart = "warm_start"
	// MetaFit is the id of the fitted clustering model the record's
	// TrainPDF was computed under (fairds.Service.FitID) — what data regime
	// the model's signature is valid for. It is stamped by whoever registers
	// the model next to the data service (the dmsapi server, the trainer),
	// never taken from a client; absent on a record registered without one.
	MetaFit = "fit"
)

// Record is one zoo entry: a checkpoint plus the signature of the data it
// was trained on.
type Record struct {
	ID       string
	State    *nn.StateDict
	TrainPDF stats.PDF
	Meta     map[string]string
	AddedAt  time.Time

	// fit is Meta[MetaFit] as the zoo received it (Add, OpenZoo), so a
	// ranking scan reads no map per model.
	fit string
}

// Parent returns the zoo ID of the checkpoint this model was warm-started
// from, or "" for a cold start (or when no lineage was recorded).
func (r *Record) Parent() string { return r.Meta[MetaParent] }

// Epochs returns the recorded training epoch count; ok is false when the
// record carries no (or a malformed) epochs entry.
func (r *Record) Epochs() (n int, ok bool) { return r.metaInt(MetaEpochs) }

// ConvergedAt returns the recorded 1-based epoch at which validation loss
// first met the target; ok is false when the run never converged or no
// lineage was recorded.
func (r *Record) ConvergedAt() (epoch int, ok bool) { return r.metaInt(MetaConvergedAt) }

// Fit returns the id of the clustering fit the record's TrainPDF was
// computed under, or "" when none was recorded.
func (r *Record) Fit() string { return r.Meta[MetaFit] }

// WarmStarted reports whether the record is flagged as a warm start.
func (r *Record) WarmStarted() bool { return r.Meta[MetaWarmStart] == "true" }

func (r *Record) metaInt(key string) (int, bool) {
	v, present := r.Meta[key]
	if !present {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Ranked pairs a zoo record with its divergence from a query PDF.
type Ranked struct {
	Record *Record
	JSD    float64
}

// Store is the slice of a document collection a zoo keeps its models in:
// one commit and one query. *docstore.Collection and
// fairds.RemoteCollection both satisfy it.
type Store interface {
	ApplyTxn(ops []docstore.TxnOp) ([]string, error)
	Find(q docstore.Query) ([]*docstore.Doc, error)
}

// Zoo stores model records. Safe for concurrent use.
type Zoo struct {
	// addMu serializes Add from its duplicate check through the store
	// commit to publication, so readers (which take only mu) never wait
	// behind a store write.
	addMu sync.Mutex
	store Store // nil: memory only
	seq   int64 // guarded by addMu; insertion sequence of the last model document

	mu      sync.RWMutex
	records map[string]*Record // guarded by mu
	order   []*Record          // guarded by mu; insertion order for deterministic iteration
	clock   func() time.Time
}

// NewZoo returns an empty, memory-only zoo.
func NewZoo() *Zoo {
	return &Zoo{records: make(map[string]*Record), clock: time.Now}
}

// OpenZoo returns the zoo kept in store: every model document it holds,
// in insertion order, and from then on every Add written through to it. A
// document without weights, with an invalid PDF or with an undecodable
// state fails the open with an error naming it; nothing is rewritten, so
// the store is left exactly as found.
func OpenZoo(store Store) (*Zoo, error) {
	docs, err := store.Find(docstore.Query{})
	if err != nil {
		return nil, fmt.Errorf("fairms: reading model documents: %w", err)
	}
	type loaded struct {
		r   *Record
		seq int64
	}
	recs := make([]loaded, len(docs))
	for i, d := range docs {
		if recs[i].r, recs[i].seq, err = recordFromDoc(d); err != nil {
			return nil, fmt.Errorf("fairms: model document %q: %w", d.ID, err)
		}
	}
	// Find returns ID order, so the stable sort breaks seq ties by ID.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	z := &Zoo{store: store, records: make(map[string]*Record, len(recs)), clock: time.Now}
	for _, l := range recs {
		//lint:ignore guardedby z is not yet shared
		z.records[l.r.ID], z.order, z.seq = l.r, append(z.order, l.r), max(z.seq, l.seq)
	}
	return z, nil
}

// modelDoc renders a record as the fields of its document. Meta travels as
// alternating key, value strings (sorted by key, so equal records render
// equal documents) with the fit id lifted into a field of its own.
func modelDoc(r *Record, seq int64) (docstore.Fields, error) {
	state, err := r.State.Bytes()
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(r.Meta))
	for k := range r.Meta {
		if k != MetaFit {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	meta := make([]string, 0, 2*len(keys))
	for _, k := range keys {
		meta = append(meta, k, r.Meta[k])
	}
	return docstore.Fields{
		"state":    state,
		"pdf":      []float64(r.TrainPDF),
		"meta":     meta,
		"fit":      r.Fit(),
		"added_at": r.AddedAt.UnixNano(),
		"seq":      seq,
	}, nil
}

// recordFromDoc is modelDoc's inverse, validating what it reads.
func recordFromDoc(d *docstore.Doc) (*Record, int64, error) {
	blob, _ := d.F["state"].([]byte)
	if len(blob) == 0 {
		return nil, 0, errors.New("no weights")
	}
	state, err := nn.StateDictFromBytes(blob)
	if err != nil {
		return nil, 0, err
	}
	pdf, _ := d.F["pdf"].([]float64)
	if err := stats.PDF(pdf).Validate(); err != nil {
		return nil, 0, err
	}
	pairs, _ := d.F["meta"].([]string)
	if len(pairs)%2 != 0 {
		return nil, 0, fmt.Errorf("meta holds %d strings, want key/value pairs", len(pairs))
	}
	meta := make(map[string]string, len(pairs)/2+1)
	for i := 0; i < len(pairs); i += 2 {
		meta[pairs[i]] = pairs[i+1]
	}
	if fit, _ := d.F["fit"].(string); fit != "" {
		meta[MetaFit] = fit
	}
	addedAt, _ := d.F["added_at"].(int64)
	seq, _ := d.F["seq"].(int64)
	return &Record{
		ID: d.ID, State: state, TrainPDF: pdf, Meta: meta, AddedAt: time.Unix(0, addedAt), fit: meta[MetaFit],
	}, seq, nil
}

// ErrDuplicateID is wrapped by Add when the model ID is already taken,
// letting callers (e.g. a service front end mapping to HTTP 409) tell
// "already registered" apart from validation failures.
var ErrDuplicateID = errors.New("fairms: duplicate model id")

// ErrStore is wrapped by Add when writing the model document failed: the
// request was well-formed and the zoo does not hold the model — a server
// fault (HTTP 500), and safe to retry.
var ErrStore = errors.New("fairms: storing model failed")

// Add registers a checkpoint under id with its training-data PDF. The PDF
// must be a valid distribution; duplicate IDs are rejected with an error
// wrapping ErrDuplicateID. On a store-backed zoo the model document is
// committed before the record is published, so a failed (ErrStore) or torn
// write leaves the zoo without that id, never with half of one.
func (z *Zoo) Add(id string, state *nn.StateDict, trainPDF stats.PDF, meta map[string]string) error {
	if id == "" {
		return errors.New("fairms: empty model id")
	}
	if state == nil {
		return fmt.Errorf("fairms: model %q has nil state", id)
	}
	if err := trainPDF.Validate(); err != nil {
		return fmt.Errorf("fairms: model %q: %w", id, err)
	}
	m := make(map[string]string, len(meta))
	for k, v := range meta {
		m[k] = v
	}
	r := &Record{
		ID: id, State: state,
		TrainPDF: append(stats.PDF(nil), trainPDF...),
		Meta:     m, AddedAt: z.clock(), fit: m[MetaFit],
	}

	z.addMu.Lock()
	defer z.addMu.Unlock()
	z.mu.RLock()
	_, dup := z.records[id]
	z.mu.RUnlock()
	if dup {
		return fmt.Errorf("%w: model %q already in zoo", ErrDuplicateID, id)
	}
	if z.store != nil {
		f, err := modelDoc(r, z.seq+1)
		if err != nil {
			return fmt.Errorf("fairms: model %q: %w", id, err)
		}
		if _, err := z.store.ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnAdd, ID: id, F: f}}); err != nil {
			return fmt.Errorf("%w: model %q: %v", ErrStore, id, err)
		}
		z.seq++
	}
	z.mu.Lock()
	z.records[id] = r
	z.order = append(z.order, r)
	z.mu.Unlock()
	return nil
}

// Get returns the record with the given ID.
func (z *Zoo) Get(id string) (*Record, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	r, ok := z.records[id]
	if !ok {
		return nil, fmt.Errorf("fairms: model %q not in zoo", id)
	}
	return r, nil
}

// Len returns the number of stored models.
func (z *Zoo) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records)
}

// IDs returns model IDs in insertion order.
func (z *Zoo) IDs() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	ids := make([]string, len(z.order))
	for i, r := range z.order {
		ids[i] = r.ID
	}
	return ids
}

// Rank is RankFit with no fit named.
func (z *Zoo) Rank(input stats.PDF) ([]Ranked, error) { return z.RankFit("", input) }

// RankFit scores every compatible zoo model against the input PDF — a PDF
// computed under the clustering fit named fit — ascending by JSD (best
// foundation first); ties break by insertion order for determinism. A
// record registered under another fit is skipped: its histogram counts
// membership of other centroids, even when there are as many of them. When
// either side names no fit, only the cluster count can tell, and PDFs of
// another length than the input are skipped.
func (z *Zoo) RankFit(fit string, input stats.PDF) ([]Ranked, error) {
	var out []Ranked
	err := z.scan(fit, input, func(r *Record, jsd float64) {
		out = append(out, Ranked{Record: r, JSD: jsd})
	})
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(out, func(a, b Ranked) int { return cmp.Compare(a.JSD, b.JSD) })
	return out, nil
}

// BestFit is RankFit's first entry without the ranking: one pass over the
// compatible models keeps the first with the strictly smallest JSD, which
// is the one the stable sort puts first (the JSDs of validated PDFs are
// never NaN). ok is false when no model is compatible. It allocates
// nothing, so a recommend costs one divergence per model.
func (z *Zoo) BestFit(fit string, input stats.PDF) (best Ranked, ok bool, err error) {
	err = z.scan(fit, input, func(r *Record, jsd float64) {
		if !ok || jsd < best.JSD {
			best, ok = Ranked{Record: r, JSD: jsd}, true
		}
	})
	if err != nil {
		return Ranked{}, false, err
	}
	return best, ok, nil
}

// scan validates the query PDF and calls f, in insertion order and under
// mu's read side, with every record compatible with a PDF computed under
// fit and its divergence from input.
func (z *Zoo) scan(fit string, input stats.PDF, f func(r *Record, jsd float64)) error {
	if err := input.Validate(); err != nil {
		return fmt.Errorf("fairms: query PDF: %w", err)
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, r := range z.order {
		if fit != "" {
			if r.fit != "" && r.fit != fit {
				continue
			}
		}
		// Also holds a same-fit record registered with a PDF of the wrong
		// length (a client's mistake) away from JSDivergence, which panics.
		if len(r.TrainPDF) != len(input) {
			continue
		}
		f(r, stats.JSDivergence(input, r.TrainPDF))
	}
	return nil
}

// Recommend returns the best foundation model for the input PDF, or an
// error if the zoo holds no compatible models.
func (z *Zoo) Recommend(input stats.PDF) (*Ranked, error) {
	best, ok, err := z.BestFit("", input)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("fairms: no compatible models in zoo")
	}
	return &best, nil
}

// BestMedianWorst returns the best, median, and worst ranked models for an
// input PDF — the FineTune-B/M/W comparison of Figs. 13–14.
func (z *Zoo) BestMedianWorst(input stats.PDF) (best, median, worst *Ranked, err error) {
	ranked, err := z.Rank(input)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(ranked) == 0 {
		return nil, nil, nil, errors.New("fairms: no compatible models in zoo")
	}
	b, m, w := ranked[0], ranked[len(ranked)/2], ranked[len(ranked)-1]
	return &b, &m, &w, nil
}
