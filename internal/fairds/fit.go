package fairds

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"fairdms/internal/cluster"
	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/vecindex"
)

// The fitted clustering model is kept as one document, fitDocID, in the
// sibling collection "<collection>.fit" of the sample collection: it rides
// the same log, checkpoint and recovery as the samples whose cluster field
// it gives meaning to, with no record kind of its own.
const (
	fitSuffix = ".fit"
	fitDocID  = "current"
)

// fitStore is what the fit document needs of a collection: one commit and
// one query.
type fitStore interface {
	TxnStore
	Find(q docstore.Query) ([]*docstore.Doc, error)
}

// siblingStore is an optional DataStore upgrade: a collection that can hand
// out a sibling collection of the store it belongs to.
// *docstore.Collection implements it; RemoteCollection names its sibling
// itself. A bare wrapper has neither, and its fit stays in memory only.
type siblingStore interface {
	Sibling(suffix string) *docstore.Collection
}

func siblingFitStore(store DataStore) fitStore {
	switch st := store.(type) {
	case siblingStore:
		return st.Sibling(fitSuffix)
	case RemoteCollection:
		return st.Sibling(fitSuffix)
	}
	return nil
}

// identifier is an optional embed.Embedder upgrade: a stable description of
// the embedding space (architecture, sizes, seed). The fit document records
// it, and New refuses a store whose recorded identity differs from the
// configured embedder's — centroids and stored embeddings from one space
// are meaningless in another. An embedder without it records "" and skips
// the check.
type identifier interface {
	Identity() string
}

func identityOf(e embed.Embedder) string {
	if id, ok := e.(identifier); ok {
		return id.Identity()
	}
	return ""
}

// FitID identifies the fitted clustering model: a hash of K and the
// centroid bits, so two services fitted on the same batch under the same
// seed agree on it and a refit — same K or not — changes it. It is "" while
// unfitted. fairMS stamps it on every model so a PDF is only ever ranked
// against PDFs computed under the same centroids.
func (s *Service) FitID() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fitID
}

func fitIDOf(centers [][]float64) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(centers)))
	h.Write(b[:])
	for _, c := range centers {
		for _, v := range c {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// publishFit is the one place a fitted model becomes the service's, with
// the embedder e it was fitted under, its elbow curve wss (nil for a fixed
// K) and, from Reindex, the index entries of the re-embedded store: the fit
// document is committed first and the rest installed only after, so a
// failed or torn write leaves the service — and, after a crash, the store
// — on the previous fit, never on half of one. width is the element count
// of the samples km was fitted on. It holds mu's write side for the commit
// and the install only: the embedding and k-means work is done by then.
func (s *Service) publishFit(e embed.Embedder, km *cluster.KMeans, wss []float64, width int, entries []vecindex.Entry) error {
	id := fitIDOf(km.Centers)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fits != nil {
		dim := len(km.Centers[0])
		flat := make([]float64, 0, len(km.Centers)*dim)
		for _, c := range km.Centers {
			flat = append(flat, c...)
		}
		ops := []docstore.TxnOp{{Kind: docstore.TxnAdd, ID: fitDocID, F: docstore.Fields{
			"fit":       id,
			"k":         len(km.Centers),
			"dim":       dim,
			"centers":   flat,
			"fuzzifier": s.cfg.Fuzzifier,
			"embedder":  identityOf(e),
			"width":     width,
		}}}
		if s.fitID != "" {
			// A refit replaces the document inside the same transaction.
			ops = append([]docstore.TxnOp{{Kind: docstore.TxnDelete, ID: fitDocID}}, ops...)
		}
		if _, err := s.fits.ApplyTxn(ops); err != nil {
			return fmt.Errorf("fairds: storing fit %s: %w", id, err)
		}
	}
	s.embedder, s.km, s.wss, s.fitID = e, km, wss, id
	s.width.Store(int64(width))
	if entries != nil {
		if err := s.idx.Rebuild(entries); err != nil {
			return fmt.Errorf("fairds: rebuilding vector index: %w", err)
		}
	}
	return nil
}

// restoreFit loads the fit document, if the store holds one. A malformed
// document or one recorded under another embedder is an error naming it;
// nothing is rewritten either way.
func (s *Service) restoreFit() error {
	if s.fits == nil {
		return nil
	}
	s.mu.Lock() // uncontended: New has not returned s yet
	defer s.mu.Unlock()
	docs, err := s.fits.Find(docstore.Query{})
	if err != nil {
		return fmt.Errorf("fairds: reading fit document: %w", err)
	}
	if len(docs) == 0 {
		return nil
	}
	d := docs[0]
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fairds: fit document %q: %s", d.ID, fmt.Sprintf(format, args...))
	}
	k, _ := d.F["k"].(int64)
	dim, _ := d.F["dim"].(int64)
	flat, _ := d.F["centers"].([]float64)
	// The length is checked by division: k*dim can wrap.
	if len(docs) != 1 || d.ID != fitDocID || k <= 0 || dim <= 0 ||
		int64(len(flat))%dim != 0 || int64(len(flat))/dim != k {
		return bad("%d documents, k=%d dim=%d with %d centroid values; want one %q document holding k×dim",
			len(docs), k, dim, len(flat), fitDocID)
	}
	if int(dim) != s.embedder.Dim() {
		return bad("centroids have dimension %d, the configured embedder %d", dim, s.embedder.Dim())
	}
	recorded, _ := d.F["embedder"].(string)
	if mine := identityOf(s.embedder); recorded != "" && mine != "" && recorded != mine {
		return bad("recorded under embedder %q, this service is configured with %q — the stored embeddings and centroids belong to the recorded one", recorded, mine)
	}
	// A document written before the field existed has no width: the first
	// ingest then sets it.
	width, _ := d.F["width"].(int64)
	if width < 0 {
		return bad("sample width %d", width)
	}
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = flat[int64(i)*dim : int64(i+1)*dim : int64(i+1)*dim]
	}
	s.km, s.fitID = &cluster.KMeans{Centers: centers}, fitIDOf(centers)
	s.width.Store(width)
	return nil
}
