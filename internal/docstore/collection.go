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
	ordFields  map[string]struct{} // guarded by idxMu

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
	ordIdx  map[string][]ordEntry                     // guarded by mu; field → sorted entries
}

type ordEntry struct {
	key float64
	id  string
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
		ordFields:  make(map[string]struct{}),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			docs:    make(map[string]*Doc),
			hashIdx: make(map[string]map[string]map[string]struct{}),
			ordIdx:  make(map[string][]ordEntry),
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

// NumShards reports the stripe count.
func (c *Collection) NumShards() int { return len(c.shards) }

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
// documents. Indexing a field twice is a no-op.
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
			c.dropIndexFragments(field, i, indexHash)
			return err
		}
	}
	c.hashFields[field] = struct{}{}
	return c.logMeta(txnCreateHashIndex, field)
}

type indexKind uint8

const (
	indexHash indexKind = iota
	indexOrdered
)

// dropIndexFragments removes the field's fragment of one index kind from
// shards [0, upto) — the rollback path when index creation fails partway.
// Only the kind being created is dropped: the same field may legitimately
// carry the other kind from an earlier successful build.
func (c *Collection) dropIndexFragments(field string, upto int, kind indexKind) {
	for _, s := range c.shards[:upto] {
		s.mu.Lock()
		if kind == indexHash {
			delete(s.hashIdx, field)
		} else {
			delete(s.ordIdx, field)
		}
		s.mu.Unlock()
	}
}

// CreateOrderedIndex builds a range index over a numeric field.
func (c *Collection) CreateOrderedIndex(field string) error {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	if _, ok := c.ordFields[field]; ok {
		return nil
	}
	for i, s := range c.shards {
		s.mu.Lock()
		var entries []ordEntry
		var err error
		for id, d := range s.docs {
			if v, ok := d.F[field]; ok {
				f, ok := asFloat(v)
				if !ok {
					err = fmt.Errorf("docstore: ordered index %s.%s: non-numeric value %T", c.name, field, v)
					break
				}
				entries = append(entries, ordEntry{key: f, id: id})
			}
		}
		if err == nil {
			sortOrd(entries)
			s.ordIdx[field] = entries
		}
		s.mu.Unlock()
		if err != nil {
			c.dropIndexFragments(field, i, indexOrdered)
			return err
		}
	}
	c.ordFields[field] = struct{}{}
	return c.logMeta(txnCreateOrderedIndex, field)
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

// Indexes lists indexed fields (hash and ordered).
func (c *Collection) Indexes() (hash, ordered []string) {
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	for f := range c.hashFields {
		hash = append(hash, f)
	}
	for f := range c.ordFields {
		ordered = append(ordered, f)
	}
	sort.Strings(hash)
	sort.Strings(ordered)
	return
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
// stored or none is, and no reader observes part of it.
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
// copy-on-write, so snapshots handed out by NewReadTxn keep observing
// the pre-update value.
func (c *Collection) Update(id string, f Fields) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnUpdate, ID: id, F: f}})
	return err
}

// Delete removes a document.
func (c *Collection) Delete(id string) error {
	_, err := c.ApplyTxn([]TxnOp{{Kind: TxnDelete, ID: id}})
	return err
}

// Find returns copies of documents matching the query, using indexes when
// the query's filters allow it. With Query.Project set, returned documents
// carry only the projected fields.
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

// shardMatch is one shard's contribution to a query: matched IDs plus, when
// the query sorts by a field, the sort-key value captured under the shard
// lock so the global merge needs no re-locking.
type shardMatch struct {
	ids  []string
	keys []any
}

// scanShards evaluates the query's filters on every shard in parallel and
// returns the per-shard matches (unsorted, unpaginated).
func (c *Collection) scanShards(q Query) []shardMatch {
	results := make([]shardMatch, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var m shardMatch
		s.forEachMatchLocked(q, q.SortBy != "", func(id string, d *Doc) {
			m.ids = append(m.ids, id)
			if q.SortBy != "" {
				m.keys = append(m.keys, d.F[q.SortBy])
			}
		})
		results[i] = m
	})
	return results
}

// FindIDs returns the IDs of matching documents in deterministic order:
// by the sort field (ties broken by ID) when SortBy is set, else by ID.
func (c *Collection) FindIDs(q Query) ([]string, error) {
	parts := c.scanShards(q)
	total := 0
	for _, p := range parts {
		total += len(p.ids)
	}
	matched := make([]string, 0, total)
	if q.SortBy == "" {
		for _, p := range parts {
			matched = append(matched, p.ids...)
		}
		sortIDs(matched)
		if q.Desc {
			for i, j := 0, len(matched)-1; i < j; i, j = i+1, j-1 {
				matched[i], matched[j] = matched[j], matched[i]
			}
		}
	} else {
		keys := make([]any, 0, total)
		for _, p := range parts {
			matched = append(matched, p.ids...)
			keys = append(keys, p.keys...)
		}
		sort.Sort(&sortByKey{ids: matched, keys: keys, desc: q.Desc})
	}

	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			return nil, nil
		}
		matched = matched[q.Offset:]
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched, nil
}

// sortByKey orders IDs by their captured sort-key values, breaking ties
// (and incomparable pairs) by ID so results are deterministic across runs
// and shard layouts.
type sortByKey struct {
	ids  []string
	keys []any
	desc bool
}

func (s *sortByKey) Len() int { return len(s.ids) }
func (s *sortByKey) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *sortByKey) Less(i, j int) bool {
	cmp, ok := compareValues(s.keys[i], s.keys[j])
	if !ok || cmp == 0 {
		return s.ids[i] < s.ids[j]
	}
	if s.desc {
		return cmp > 0
	}
	return cmp < 0
}

// CountWhere returns how many documents match the query. It counts
// per-shard in parallel with no global sort or ID materialization.
func (c *Collection) CountWhere(q Query) (int, error) {
	q.Limit = 0
	q.Offset = 0
	q.SortBy = ""
	parts := c.scanShards(q)
	n := 0
	for _, p := range parts {
		n += len(p.ids)
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
// order, stripe count, insertion order or replay history. A query with
// SortBy, Limit or Offset draws from the FindIDs page instead. n ≤ 0 is an
// empty draw.
func (c *Collection) SampleIDs(q Query, n int, seed int64) ([]string, error) {
	if n <= 0 {
		return nil, nil
	}
	if q.SortBy != "" || q.Limit > 0 || q.Offset > 0 {
		ids, err := c.FindIDs(q)
		if err != nil {
			return nil, err
		}
		sel := newLowest(n, seed)
		for _, id := range ids {
			sel.offer(id)
		}
		return sel.ids(), nil
	}
	parts := make([]lowest, len(c.shards))
	c.forEachShard(func(i int, s *shard) {
		sel := newLowest(n, seed)
		s.mu.RLock()
		s.forEachMatchLocked(q, false, func(id string, _ *Doc) { sel.offer(id) })
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

// AllIDs returns every document ID in sorted order.
func (c *Collection) AllIDs() []string {
	var ids []string
	for _, s := range c.shards {
		s.mu.RLock()
		for id := range s.docs {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sortIDs(ids)
	return ids
}

// forEachMatchLocked calls fn for every document of the shard matching all
// of the query's filters, in no particular order, over the cheapest access
// path: the smallest matching hash-index bucket, an ordered-index range, or
// a full shard scan, with the filters the path did not decide evaluated on
// each candidate. When the bucket alone decides the match and wantDoc is
// false, fn receives a nil document and the document map is not touched.
// Caller holds at least the shard's read lock. Different shards may pick
// different access paths for the same query; correctness only requires
// that each shard's candidates cover its matches.
// lint:holds s.mu
func (s *shard) forEachMatchLocked(q Query, wantDoc bool, fn func(id string, d *Doc)) {
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
		fn(id, d)
	}

	// Equality filters on hash-indexed fields.
	best := -1
	var bucket map[string]struct{}
	for i, f := range q.Filters {
		if f.Op != OpEq {
			continue
		}
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
		if len(rest) == 0 && !wantDoc {
			for id := range bucket {
				fn(id, nil)
			}
			return
		}
		for id := range bucket {
			visit(id, rest)
		}
		return
	}

	// Range filters on ordered-indexed fields.
	for i, f := range q.Filters {
		if f.Op != OpLt && f.Op != OpLte && f.Op != OpGt && f.Op != OpGte {
			continue
		}
		entries, ok := s.ordIdx[f.Field]
		if !ok {
			continue
		}
		pivot, ok := asFloat(f.Value)
		if !ok {
			continue
		}
		switch f.Op {
		case OpLt:
			entries = entries[:sort.Search(len(entries), func(j int) bool { return entries[j].key >= pivot })]
		case OpLte:
			entries = entries[:sort.Search(len(entries), func(j int) bool { return entries[j].key > pivot })]
		case OpGt:
			entries = entries[sort.Search(len(entries), func(j int) bool { return entries[j].key > pivot }):]
		case OpGte:
			entries = entries[sort.Search(len(entries), func(j int) bool { return entries[j].key >= pivot }):]
		}
		rest := without(i)
		for _, e := range entries {
			visit(e.id, rest)
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
	for field := range s.ordIdx {
		v, ok := d.F[field]
		if !ok {
			continue
		}
		f, ok := asFloat(v)
		if !ok {
			return fmt.Errorf("docstore: ordered index %s.%s: non-numeric value %T", collection, field, v)
		}
		entries := s.ordIdx[field]
		at := sort.Search(len(entries), func(j int) bool { return entries[j].key >= f })
		entries = append(entries, ordEntry{})
		copy(entries[at+1:], entries[at:])
		entries[at] = ordEntry{key: f, id: d.ID}
		s.ordIdx[field] = entries
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
	for field, entries := range s.ordIdx {
		v, ok := d.F[field]
		if !ok {
			continue
		}
		f, ok := asFloat(v)
		if !ok {
			continue
		}
		lo := sort.Search(len(entries), func(j int) bool { return entries[j].key >= f })
		for i := lo; i < len(entries) && entries[i].key == f; i++ {
			if entries[i].id == d.ID {
				s.ordIdx[field] = append(entries[:i], entries[i+1:]...)
				break
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

func sortOrd(entries []ordEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].id < entries[j].id
	})
}
