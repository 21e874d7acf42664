package docstore

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
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
	docs    map[string]*Doc               // guarded by mu
	hashIdx map[string]map[string]*bucket // guarded by mu; field → key → members

	// drawMu lets draws install and drop draw slabs (bucket.draws) under
	// mu's read side; writers, who hold mu's write side, need not take it.
	drawMu sync.Mutex
	slabs  int // guarded by drawMu; slabs installed since the last drop, at least as many as are held
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
			hashIdx: make(map[string]map[string]*bucket),
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
		idx := make(map[string]*bucket)
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

// genID reserves the next sequential document ID: the collection's name,
// a dash and the sequence number zero-padded to eight digits, the bytes of
// fmt.Sprintf("%s-%08d") in one allocation.
func (c *Collection) genID() string {
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], c.nextID.Add(1), 10)
	pad := max(0, 8-len(digits))
	return c.name + "-" + "00000000"[:pad] + string(digits)
}

// InsertMany stores a batch of documents under generated IDs, returning
// them in order — the paper's "parallel writes during the data update
// phase" path for bulk label ingestion. The batch is one ApplyTxn
// transaction (and one WAL commit record on a durable store): either every
// document is stored or none is. ApplyTxn is the collection's only write
// path, so in-memory and durable stores have one set of semantics.
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

// GetMany returns the documents with the given IDs, in order. Missing IDs
// produce an error naming the first absent one. IDs are fetched
// shard-by-shard, so the result is not a single atomic snapshot under
// concurrent writers.
//
// The documents are the store's own, not copies: a stored document is
// never modified, because every write replaces it whole (copy-on-write:
// an update merges into a fresh field map), so a document a reader holds
// keeps the fields it was read with. The caller must treat it as
// read-only, its field map and slice values included; Get returns a copy
// that may be changed.
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
			out[i] = d
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
	keys := filterKeys(q)
	c.forEachShard(func(i int, s *shard) {
		var ids []string
		s.mu.RLock()
		s.forEachMatchLocked(q, keys, func(id string) { ids = append(ids, id) })
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
// Nothing is listed to draw from it: each lock stripe keeps only its own n
// lowest under its read lock, and the stripes' selections are merged by
// the same rule, so the result does not depend on map order, stripe count,
// insertion order or replay history. When the query has an equality
// filter on a hash-indexed field, a stripe draws from that bucket's draw
// slab, the members' ranks under seed kept beside their IDs: the draw
// hashes nothing and walks no map, one comparison per member, and the
// query's other filters are checked only on a member whose rank would
// enter the selection. A query with no indexed filter hashes each match of
// a full scan. The filters' index keys are made once per call, not per
// stripe. n ≤ 0 is an empty draw.
func (c *Collection) SampleIDs(q Query, n int, seed int64) ([]string, error) {
	if n <= 0 {
		return nil, nil
	}
	parts := make([]lowest, len(c.shards))
	keys := filterKeys(q)
	c.forEachShard(func(i int, s *shard) {
		sel := newLowest(n, seed)
		s.mu.RLock()
		s.drawLocked(q, keys, &sel, seed)
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

// filterKeys returns the index key of each of q's filter values, "" for a
// value no index can hold (every key indexKey makes is non-empty).
func filterKeys(q Query) []string {
	keys := make([]string, len(q.Filters))
	for i, f := range q.Filters {
		keys[i], _ = indexKey(f.Value)
	}
	return keys
}

// indexedBucketLocked picks the query's index access path: the position of
// the equality filter on a hash-indexed field whose bucket is smallest, and
// that bucket (nil when no document of the stripe has the key). keys are
// the filters' index keys (filterKeys). at is -1 when no filter can use an
// index. Caller holds at least the shard's read lock.
// lint:holds s.mu
func (s *shard) indexedBucketLocked(q Query, keys []string) (at int, b *bucket) {
	at = -1
	for i, f := range q.Filters {
		idx, ok := s.hashIdx[f.Field]
		if !ok || keys[i] == "" {
			continue
		}
		if kb := idx[keys[i]]; at < 0 || kb.size() < b.size() {
			at, b = i, kb
		}
	}
	return at, b
}

// forEachMatchLocked calls fn with the ID of every document of the shard
// matching all of the query's filters, in no particular order, over the
// cheapest access path: the smallest matching hash-index bucket or a full
// shard scan, with the filters the path did not decide evaluated on each
// candidate. When the bucket alone decides the match, the document map is
// not touched. Caller holds at least the shard's read lock. Different
// shards may pick different access paths for the same query; correctness
// only requires that each shard's candidates cover its matches. keys are
// the filters' index keys (filterKeys).
// lint:holds s.mu
func (s *shard) forEachMatchLocked(q Query, keys []string, fn func(id string)) {
	at, b := s.indexedBucketLocked(q, keys)
	if at < 0 {
		for id, d := range s.docs {
			if matchesAll(d, q.Filters) {
				fn(id)
			}
		}
		return
	}
	if b == nil {
		return
	}
	rest := without(q.Filters, at)
	for _, id := range b.ids {
		if len(rest) == 0 || matchesAll(s.docs[id], rest) {
			fn(id)
		}
	}
}

// drawLocked offers sel the shard's matches of the query, drawing under
// seed. Over an index bucket it reads the bucket's draw slab and checks the
// other filters only on a member whose rank sel may take; without one it
// hashes every match of a full scan. keys are the filters' index keys
// (filterKeys). Caller holds at least the shard's read lock.
// lint:holds s.mu
func (s *shard) drawLocked(q Query, keys []string, sel *lowest, seed int64) {
	at, b := s.indexedBucketLocked(q, keys)
	if at < 0 {
		s.forEachMatchLocked(q, keys, sel.offer)
		return
	}
	if b == nil {
		return
	}
	rest := without(q.Filters, at)
	for i, r := range s.slabLocked(b, seed) {
		if !sel.mayTake(r) {
			continue
		}
		if id := b.ids[i]; len(rest) == 0 || matchesAll(s.docs[id], rest) {
			sel.add(ranked{rank: r, id: id})
		}
	}
}

// maxDrawSlabs caps the draw slabs one stripe holds. fairDS draws cluster
// k under seed+k, so the lookups under one seed need a slab per occupied
// cluster (its fits have at most 10 by default), and 32 leaves room for
// three such seeds. Past the cap the stripe drops every slab it holds: a
// caller who draws under ever new seeds costs one hash per member per
// draw, as a draw without slabs does, and the stripe never holds more than
// 32 slabs of 8 bytes per member.
const maxDrawSlabs = 32

// slabLocked returns b's draw slab for seed: the DrawRank under seed of
// each of b.ids, aligned with it. The first draw under a seed computes it
// and installs it under drawMu; the caller's read lock keeps writers, and
// so any change to b.ids, out meanwhile, and from then on the writers keep
// the slab aligned (bucket.add, bucket.remove).
// lint:holds s.mu
func (s *shard) slabLocked(b *bucket, seed int64) []uint64 {
	s.drawMu.Lock()
	ranks, ok := b.draws[seed]
	s.drawMu.Unlock()
	if ok {
		return ranks
	}
	state := drawState(seed)
	ranks = make([]uint64, len(b.ids))
	for i, id := range b.ids {
		ranks[i] = rankOf(state, id)
	}
	s.drawMu.Lock()
	defer s.drawMu.Unlock()
	if built, ok := b.draws[seed]; ok { // a concurrent draw installed it first
		return built
	}
	if s.slabs >= maxDrawSlabs {
		for _, idx := range s.hashIdx {
			for _, kb := range idx {
				kb.draws = nil
			}
		}
		s.slabs = 0
	}
	if b.draws == nil {
		b.draws = make(map[int64][]uint64)
	}
	b.draws[seed] = ranks
	s.slabs++
	return ranks
}

// without returns the filters other than the one at position i.
func without(fs []Filter, i int) []Filter {
	if len(fs) == 1 {
		return nil
	}
	rest := make([]Filter, 0, len(fs)-1)
	rest = append(rest, fs[:i]...)
	return append(rest, fs[i+1:]...)
}

// matchesAll reports whether d is a document matching every filter.
func matchesAll(d *Doc, fs []Filter) bool {
	if d == nil {
		return false
	}
	for _, f := range fs {
		if !f.matches(d) {
			return false
		}
	}
	return true
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
		if b, ok := idx[key]; ok {
			b.remove(d.ID)
			if len(b.ids) == 0 {
				delete(idx, key)
			}
		}
	}
}

func addToHash(idx map[string]*bucket, key, id string) {
	b, ok := idx[key]
	if !ok {
		b = &bucket{pos: make(map[string]int)}
		idx[key] = b
	}
	b.add(id)
}

// bucket is one key's members in a stripe's fragment of a hash index. The
// IDs sit in a slice, so walking a bucket touches no map; pos finds an
// ID's place in it, and removal moves the last member into the gap.
type bucket struct {
	ids []string
	pos map[string]int
	// draws holds the bucket's draw slabs: for a seed, the DrawRank of
	// every member, aligned with ids. Writers keep each slab aligned under
	// the stripe's write lock; draws install and drop slabs under its read
	// lock and drawMu (shard.slabLocked).
	draws map[int64][]uint64
}

func (b *bucket) size() int {
	if b == nil {
		return 0
	}
	return len(b.ids)
}

// add appends id to the bucket and its rank to each slab; an ID already
// there is left as it is.
func (b *bucket) add(id string) {
	if _, ok := b.pos[id]; ok {
		return
	}
	b.pos[id] = len(b.ids)
	b.ids = append(b.ids, id)
	for seed, ranks := range b.draws {
		b.draws[seed] = append(ranks, DrawRank(seed, id))
	}
}

// remove takes id out of the bucket and each slab, moving the last member
// into its place; an absent ID is a no-op.
func (b *bucket) remove(id string) {
	i, ok := b.pos[id]
	if !ok {
		return
	}
	last := len(b.ids) - 1
	moved := b.ids[last]
	b.ids[i], b.pos[moved] = moved, i
	b.ids[last] = ""
	b.ids = b.ids[:last]
	delete(b.pos, id)
	for seed, ranks := range b.draws {
		ranks[i] = ranks[last]
		b.draws[seed] = ranks[:last]
	}
}
