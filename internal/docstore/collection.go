package docstore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Collection is a concurrently accessible set of documents with optional
// secondary indexes. All exported methods are safe for parallel use.
//
// Storage is lock-striped: documents are spread over a power-of-two number
// of shards by document-ID hash, each shard guarded by its own RWMutex and
// carrying its own fragment of every index. Writers touching different
// shards proceed in parallel, and full scans fan out one goroutine per
// shard — the store's "parallel reads during training / parallel writes
// during data updates" requirements (paper §II-A) at the lock level.
type Collection struct {
	name   string
	nextID atomic.Uint64
	shards []*shard
	mask   uint32

	// idxMu guards the index registry: the authoritative set of indexed
	// fields. Per-shard index fragments are guarded by the shard locks.
	idxMu      sync.Mutex
	hashFields map[string]struct{} // guarded by idxMu

	// logger, when set, makes every write durable: each ApplyTxn commit
	// becomes one WAL record. Installed once by DurableStore before the
	// store is shared; nil on plain in-memory stores.
	logger commitLogger

	// store is the Store this collection belongs to, set once by
	// Store.Collection; it is how Sibling finds the other collections.
	store *Store
}

// shard is one lock stripe: a slice of the document space plus its
// fragment of every secondary index.
type shard struct {
	mu      sync.RWMutex
	docs    map[string]*Doc                           // guarded by mu
	hashIdx map[string]map[string]map[string]struct{} // guarded by mu; field → key → id set
}

// defaultShardCount picks a power of two near GOMAXPROCS, clamped to
// [1, 32]: enough stripes that writers rarely collide, few enough that
// per-shard maps stay dense.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func newCollection(name string) *Collection {
	return newCollectionShards(name, defaultShardCount())
}

// newCollectionShards builds a collection with an explicit shard count
// (rounded up to a power of two); tests and benchmarks use it to pin the
// stripe layout.
func newCollectionShards(name string, n int) *Collection {
	if n < 1 {
		n = 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Collection{
		name:       name,
		shards:     make([]*shard, p),
		mask:       uint32(p - 1),
		hashFields: make(map[string]struct{}),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			docs:    make(map[string]*Doc),
			hashIdx: make(map[string]map[string]map[string]struct{}),
		}
	}
	return c
}

// shardIndexFor maps a document ID to its stripe index by inlined
// FNV-1a, keeping the per-operation hash allocation-free. Multi-shard
// paths use the index to acquire locks in ascending stripe order.
func (c *Collection) shardIndexFor(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h & c.mask)
}

// shardFor maps a document ID to its stripe.
func (c *Collection) shardFor(id string) *shard {
	return c.shards[c.shardIndexFor(id)]
}

// forEachShard runs fn once per shard, in parallel when the collection has
// more than one stripe. fn receives the shard index and must do its own
// locking.
func (c *Collection) forEachShard(fn func(i int, s *shard)) {
	if len(c.shards) == 1 {
		fn(0, c.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(c.shards))
	for i, s := range c.shards {
		go func(i int, s *shard) {
			defer wg.Done()
			fn(i, s)
		}(i, s)
	}
	wg.Wait()
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Sibling returns the collection named Name()+suffix of the same store,
// creating it if absent: where a service keeps the state that belongs to
// this collection's documents (fairds its fitted clustering in ".fit", the
// daemon its model zoo in ".zoo") so that it is logged, checkpointed and
// recovered with them.
func (c *Collection) Sibling(suffix string) *Collection {
	return c.store.Collection(c.name + suffix)
}

// Count returns the number of stored documents.
func (c *Collection) Count() int {
	total := 0
	for _, s := range c.shards {
		s.mu.RLock()
		total += len(s.docs)
		s.mu.RUnlock()
	}
	return total
}

// CreateHashIndex builds an equality index over field, indexing existing
// documents. Indexing a field twice is a no-op. A value the index cannot
// key (a slice, a byte string or nil) fails the build and rolls it back:
// no stripe keeps a fragment, and the field stays unindexed.
func (c *Collection) CreateHashIndex(field string) error {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if _, ok := c.hashFields[field]; ok {
		return nil
	}
	for i, s := range c.shards {
		s.mu.Lock()
		idx := make(map[string]map[string]struct{})
		var err error
		for id, d := range s.docs {
			if v, ok := d.F[field]; ok {
				key, kerr := indexKey(v)
				if kerr != nil {
					err = fmt.Errorf("docstore: indexing %s.%s: %w", c.name, field, kerr)
					break
				}
				addToHash(idx, key, id)
			}
		}
		if err == nil {
			s.hashIdx[field] = idx
		}
		s.mu.Unlock()
		if err != nil {
			for _, done := range c.shards[:i] {
				done.mu.Lock()
				delete(done.hashIdx, field)
				done.mu.Unlock()
			}
			return err
		}
	}
	c.hashFields[field] = struct{}{}
	return c.logMeta(txnCreateHashIndex, field)
}

// logMeta writes an index-create metadata record to the WAL so the index
// survives a crash before the next compaction folds it into the
// checkpoint. The in-memory index already exists when this runs; an error
// therefore means "built but possibly not durable", which callers
// surface rather than roll back.
func (c *Collection) logMeta(kind TxnKind, field string) error {
	if c.logger == nil {
		return nil
	}
	rec := walCommit{Collection: c.name, NextID: c.nextID.Load(), Ops: []TxnOp{{Kind: kind, ID: field}}}
	release, err := c.logger.logTxn(&rec)
	if err != nil {
		return fmt.Errorf("docstore: logging index creation on %s.%s: %w", c.name, field, err)
	}
	release()
	return nil
}

// Indexes lists the hash-indexed fields in sorted order.
func (c *Collection) Indexes() []string {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	hash := make([]string, 0, len(c.hashFields))
	for f := range c.hashFields {
		hash = append(hash, f)
	}
	sort.Strings(hash)
	return hash
}

// genID reserves the next sequential document ID.
func (c *Collection) genID() string {
	return fmt.Sprintf("%s-%08d", c.name, c.nextID.Add(1))
}

// Insert stores a document. If id is empty a sequential one is assigned.
// It returns the document's ID, or an error if the ID already exists or a
// field type is unsupported. Like InsertMany, Update and Delete it is a
// one-line transaction: ApplyTxn is the collection's only write path, so
// in-memory and durable stores have one set of semantics.
func (c *Collection) Insert(id string, f Fields) (string, error) {
	ids, err := c.ApplyTxn([]TxnOp{{Kind: TxnAdd, ID: id, F: f}})
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// InsertMany stores a batch of documents under generated IDs, returning
// them in order — the paper's "parallel writes during the data update
// phase" path for bulk label ingestion. The batch is one transaction (and
// one WAL commit record on a durable store): either every document is
// stored or none is.
func (c *Collection) InsertMany(fs []Fields) ([]string, error) {
	ops := make([]TxnOp, len(fs))
	for i, f := range fs {
		ops[i] = TxnOp{Kind: TxnAdd, F: f}
	}
	return c.ApplyTxn(ops)
}

// Get returns a copy of the document with the given ID.
func (c *Collection) Get(id string) (*Doc, error) {
	s := c.shardFor(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.docs[id]
	if !ok {
		return nil, fmt.Errorf("docstore: id %q not found in collection %q", id, c.name)
	}
	return &Doc{ID: d.ID, F: cloneFields(d.F)}, nil
}

// GetMany returns copies of the documents with the given IDs, in order.
// Missing IDs produce an error naming the first absent one. IDs are
// fetched shard-by-shard, so the result is not a single atomic snapshot
// under concurrent writers.
func (c *Collection) GetMany(ids []string) ([]*Doc, error) {
	out := make([]*Doc, len(ids))
	missing := -1
	c.eachShardGroup(ids, func(s *shard, positions []int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, i := range positions {
			d, ok := s.docs[ids[i]]
			if !ok {
				if missing < 0 || i < missing {
					missing = i
				}
				continue
			}
			out[i] = &Doc{ID: d.ID, F: cloneFields(d.F)}
		}
	})
	if missing >= 0 {
		return nil, fmt.Errorf("docstore: id %q not found in collection %q", ids[missing], c.name)
	}
	return out, nil
}

// eachShardGroup groups input positions by owning shard and runs fn once
// per touched shard, sequentially (callers hold no locks; fn locks).
func (c *Collection) eachShardGroup(ids []string, fn func(s *shard, positions []int)) {
	if len(c.shards) == 1 {
		positions := make([]int, len(ids))
		for i := range ids {
			positions[i] = i
		}
		fn(c.shards[0], positions)
		return
	}
	groups := make(map[*shard][]int)
	for i, id := range ids {
		s := c.shardFor(id)
		groups[s] = append(groups[s], i)
	}
	for s, positions := range groups {
		fn(s, positions)
	}
}

// Update merges fields into an existing document (set semantics), updating
// any affected indexes. The merged document replaces the old one
// copy-on-write, so a document a reader already holds never changes.
func (c *Collection) Update(id string, f Fields) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnUpdate, ID: id, F: f}})
	return err
}

// Delete removes a document.
func (c *Collection) Delete(id string) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnDelete, ID: id}})
	return err
}

// Find returns copies of documents matching the query in ID order, using a
// hash index when one of the query's fields has one. With Query.Project
// set, returned documents carry only the projected fields.
func (c *Collection) Find(q Query) ([]*Doc, error) {
	ids, err := c.FindIDs(q)
	if err != nil {
		return nil, err
	}
	if len(q.Project) == 0 {
		return c.GetMany(ids)
	}
	out := make([]*Doc, len(ids))
	missing := -1
	c.eachShardGroup(ids, func(s *shard, positions []int) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, i := range positions {
			d, ok := s.docs[ids[i]]
			if !ok {
				if missing < 0 || i < missing {
					missing = i
				}
				continue
			}
			f := make(Fields, len(q.Project))
			for _, field := range q.Project {
				if v, ok := d.F[field]; ok {
					f[field] = v
				}
			}
			out[i] = &Doc{ID: d.ID, F: f}
		}
	})
	if missing >= 0 {
		return nil, fmt.Errorf("docstore: id %q not found in collection %q", ids[missing], c.name)
	}
	return out, nil
}

// scanShards evaluates the query's filters on every shard in parallel and
// returns each shard's matched IDs, unsorted.
func (c *Collection) scanShards(q Query) [][]string {
	results := make([][]string, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		var ids []string
		s.mu.RLock()
		s.forEachMatchLocked(q, func(id string) { ids = append(ids, id) })
		s.mu.RUnlock()
		results[i] = ids
	})
	return results
}

// FindIDs returns the IDs of matching documents in ID order.
func (c *Collection) FindIDs(q Query) ([]string, error) {
	parts := c.scanShards(q)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	matched := make([]string, 0, total)
	for _, p := range parts {
		matched = append(matched, p...)
	}
	sortIDs(matched)
	return matched, nil
}

// CountWhere returns how many documents match the query. It counts
// per-shard in parallel with no global sort or ID materialization.
func (c *Collection) CountWhere(q Query) (int, error) {
	n := 0
	for _, p := range c.scanShards(q) {
		n += len(p)
	}
	return n, nil
}

// SampleIDs returns up to n document IDs drawn uniformly without
// replacement from documents matching the query: the n matches of lowest
// (DrawRank(seed, id), id), sorted by ID. fairDS uses this to draw labeled
// historical samples per cluster according to the input dataset's PDF.
//
// Nothing is listed to draw from it: each lock stripe walks the query's
// access path under its read lock keeping only its own n lowest, and the
// stripes' selections are merged by the same rule, so the cost is one hash
// and one comparison per match and the result does not depend on map
// order, stripe count, insertion order or replay history. n ≤ 0 is an
// empty draw.
func (c *Collection) SampleIDs(q Query, n int, seed int64) ([]string, error) {
	if n <= 0 {
		return nil, nil
	}
	parts := make([]lowest, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		sel := newLowest(n, seed)
		s.mu.RLock()
		s.forEachMatchLocked(q, sel.offer)
		s.mu.RUnlock()
		parts[i] = sel
	})
	sel := &parts[0]
	for _, p := range parts[1:] {
		for _, e := range p.kept {
			sel.add(e)
		}
	}
	return sel.ids(), nil
}

// forEachMatchLocked calls fn with the ID of every document of the shard
// matching all of the query's filters, in no particular order, over the
// cheapest access path: the smallest matching hash-index bucket or a full
// shard scan, with the filters the path did not decide evaluated on each
// candidate. When the bucket alone decides the match, the document map is
// not touched. Caller holds at least the shard's read lock. Different
// shards may pick different access paths for the same query; correctness
// only requires that each shard's candidates cover its matches.
// lint:holds s.mu
func (s *shard) forEachMatchLocked(q Query, fn func(id string)) {
	without := func(i int) []Filter {
		rest := make([]Filter, 0, len(q.Filters)-1)
		rest = append(rest, q.Filters[:i]...)
		return append(rest, q.Filters[i+1:]...)
	}
	visit := func(id string, rest []Filter) {
		d := s.docs[id]
		if d == nil {
			return
		}
		for _, f := range rest {
			if !f.matches(d) {
				return
			}
		}
		fn(id)
	}

	// Equality filters on hash-indexed fields.
	best := -1
	var bucket map[string]struct{}
	for i, f := range q.Filters {
		idx, ok := s.hashIdx[f.Field]
		if !ok {
			continue
		}
		key, err := indexKey(f.Value)
		if err != nil {
			continue
		}
		if b := idx[key]; best < 0 || len(b) < len(bucket) {
			best, bucket = i, b
		}
	}
	if best >= 0 {
		rest := without(best)
		if len(rest) == 0 {
			for id := range bucket {
				fn(id)
			}
			return
		}
		for id := range bucket {
			visit(id, rest)
		}
		return
	}

	// Full shard scan.
	for id := range s.docs {
		visit(id, q.Filters)
	}
}

// indexDocLocked adds the document to every index fragment covering its
// fields. Caller holds the shard's write lock.
// lint:holds s.mu
func (s *shard) indexDocLocked(collection string, d *Doc) error {
	for field, idx := range s.hashIdx {
		v, ok := d.F[field]
		if !ok {
			continue
		}
		key, err := indexKey(v)
		if err != nil {
			return fmt.Errorf("docstore: indexing %s.%s: %w", collection, field, err)
		}
		addToHash(idx, key, d.ID)
	}
	return nil
}

// unindexDocLocked removes the document from every index fragment. Caller
// holds the shard's write lock.
// lint:holds s.mu
func (s *shard) unindexDocLocked(d *Doc) {
	for field, idx := range s.hashIdx {
		v, ok := d.F[field]
		if !ok {
			continue
		}
		key, err := indexKey(v)
		if err != nil {
			continue
		}
		if bucket, ok := idx[key]; ok {
			delete(bucket, d.ID)
			if len(bucket) == 0 {
				delete(idx, key)
			}
		}
	}
}

func addToHash(idx map[string]map[string]struct{}, key, id string) {
	bucket, ok := idx[key]
	if !ok {
		bucket = make(map[string]struct{})
		idx[key] = bucket
	}
	bucket[id] = struct{}{}
}
