package docstore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// ErrConflict marks an add that names an existing document with
// different fields. An add that names one with the same fields is a
// re-sent write and succeeds without applying again. Errors from a
// Client match it under errors.Is too.
var ErrConflict = errors.New("docstore: id names a document with other fields")

// TxnKind discriminates the operations a transaction can carry.
type TxnKind uint8

const (
	// TxnAdd inserts a new document (ID assigned when empty).
	TxnAdd TxnKind = iota + 1
	// TxnUpdate merges fields into an existing document.
	TxnUpdate
	// TxnDelete removes an existing document.
	TxnDelete

	// txnCreateHashIndex only ever appears inside WAL commit records (so
	// index creation replays after a crash); ApplyTxn rejects it, keeping
	// the public transaction surface to the three document ops above.
	// Replay skips and counts any other kind.
	txnCreateHashIndex
)

// TxnOp is one operation of a transaction. For TxnAdd an empty ID asks
// the collection to assign a sequential one, and an ID that names a
// document with the same fields makes the add a no-op; TxnUpdate and
// TxnDelete require the ID. F is ignored for TxnDelete.
type TxnOp struct {
	Kind TxnKind
	ID   string
	F    Fields
}

// walCommit is the payload of one WAL record: a whole transaction
// against one collection, with IDs assigned and fields normalized.
// NextID is the collection's ID-sequence watermark after assignment, so
// replay never re-issues an ID a committed transaction consumed.
type walCommit struct {
	Collection string
	NextID     uint64
	Ops        []TxnOp
}

// commitLogger is the durability hook a DurableStore installs on every
// collection. logTxn must make rec durable (per the fsync policy) before
// returning; the returned release func must be called after the ops are
// applied to memory — it closes the window during which a checkpoint
// must not cut the log.
type commitLogger interface {
	logTxn(rec *walCommit) (release func(), err error)
}

// ApplyTxn commits ops as one all-or-nothing transaction: either every
// operation applies and the whole batch is one durable WAL commit
// record, or none apply and the error names the first offending
// operation. Within the batch later operations see earlier ones (an Add
// followed by an Update of the same ID is legal). All shards the batch
// touches stay write-locked from validation through apply, so the batch
// is all-or-nothing on disk and within each stripe: a reader of one
// stripe sees all of the batch's ops on that stripe or none. Reads that
// span stripes (Find, FindIDs, SampleIDs) lock one stripe at a time, so
// they can see the batch on one stripe and not yet on another. Returns
// the target document ID of each op, aligned with ops.
//
// An Add whose ID already names a document with the same fields (after
// normalization) succeeds without applying or logging anything: a write
// re-sent after its reply was lost lands once. With different fields it
// fails with an error wrapping ErrConflict, and the batch applies nothing.
//
// lint:holds c.shardFor(id).mu s.mu
// (every touched shard is write-locked by lockShards before any docs
// access; the analyzer cannot see through the helper.)
func (c *Collection) ApplyTxn(ops []TxnOp) ([]string, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Stage: normalize fields, assign IDs, and reject unknown kinds
	// before taking any lock.
	staged := make([]TxnOp, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case TxnAdd:
			nf, err := normalizeFields(op.F)
			if err != nil {
				return nil, fmt.Errorf("docstore: txn op %d: %w", i, err)
			}
			id := op.ID
			if id == "" {
				id = c.genID()
			}
			staged[i] = TxnOp{Kind: TxnAdd, ID: id, F: nf}
		case TxnUpdate:
			if op.ID == "" {
				return nil, fmt.Errorf("docstore: txn op %d: update needs an id", i)
			}
			nf, err := normalizeFields(op.F)
			if err != nil {
				return nil, fmt.Errorf("docstore: txn op %d: %w", i, err)
			}
			staged[i] = TxnOp{Kind: TxnUpdate, ID: op.ID, F: nf}
		case TxnDelete:
			if op.ID == "" {
				return nil, fmt.Errorf("docstore: txn op %d: delete needs an id", i)
			}
			staged[i] = TxnOp{Kind: TxnDelete, ID: op.ID}
		default:
			return nil, fmt.Errorf("docstore: txn op %d: unknown kind %d", i, op.Kind)
		}
	}

	// Write-lock every touched shard in ascending stripe order (the
	// same order every multi-shard path uses, so lock cycles cannot
	// form) and hold them through WAL append and apply.
	unlock := c.lockShards(staged)
	defer unlock()

	// Validate against the locked shards with a transaction-local
	// overlay, building each document's final state as we go. pending
	// with a nil doc is a tombstone.
	type pending struct{ d *Doc }
	over := make(map[string]*pending, len(staged))
	logged := make([]TxnOp, 0, len(staged)) // staged minus re-sent adds
	lookup := func(id string) (*Doc, bool) {
		if p, ok := over[id]; ok {
			return p.d, p.d != nil
		}
		d, ok := c.shardFor(id).docs[id]
		return d, ok
	}
	for i, op := range staged {
		switch op.Kind {
		case TxnAdd:
			if cur, exists := lookup(op.ID); exists {
				if sameFields(cur.F, op.F) {
					continue
				}
				return nil, fmt.Errorf("docstore: txn op %d: duplicate id %q in collection %q: %w", i, op.ID, c.name, ErrConflict)
			}
			d := &Doc{ID: op.ID, F: op.F}
			if err := c.shardFor(op.ID).checkIndexableLocked(c.name, d); err != nil {
				return nil, fmt.Errorf("docstore: txn op %d: %w", i, err)
			}
			over[op.ID] = &pending{d: d}
		case TxnUpdate:
			cur, ok := lookup(op.ID)
			if !ok {
				return nil, fmt.Errorf("docstore: txn op %d: id %q not found in collection %q", i, op.ID, c.name)
			}
			f := cloneFields(cur.F)
			for k, v := range op.F {
				f[k] = v
			}
			d := &Doc{ID: op.ID, F: f}
			if err := c.shardFor(op.ID).checkIndexableLocked(c.name, d); err != nil {
				return nil, fmt.Errorf("docstore: txn op %d: %w", i, err)
			}
			over[op.ID] = &pending{d: d}
		case TxnDelete:
			if _, ok := lookup(op.ID); !ok {
				return nil, fmt.Errorf("docstore: txn op %d: id %q not found in collection %q", i, op.ID, c.name)
			}
			over[op.ID] = &pending{}
		}
		logged = append(logged, op)
	}

	// Durability point: one WAL commit record for the whole batch. The
	// release callback ends the checkpoint-exclusion window after the
	// in-memory apply below.
	if c.logger != nil && len(logged) > 0 {
		rec := walCommit{Collection: c.name, NextID: c.nextID.Load(), Ops: logged}
		release, err := c.logger.logTxn(&rec)
		if err != nil {
			return nil, err
		}
		defer release()
	}

	// Apply the final overlay states. Validation above checked exactly
	// the conditions under which indexing can fail, and the shards have
	// stayed locked since, so this cannot error.
	for id, p := range over {
		s := c.shardFor(id)
		if old, ok := s.docs[id]; ok {
			s.unindexDocLocked(old)
			delete(s.docs, id)
		}
		if p.d != nil {
			s.docs[id] = p.d
			if err := s.indexDocLocked(c.name, p.d); err != nil {
				return nil, fmt.Errorf("docstore: txn apply (unreachable after validation): %w", err)
			}
		}
	}

	ids := make([]string, len(staged))
	for i, op := range staged {
		ids[i] = op.ID
	}
	return ids, nil
}

// lockShards write-locks the distinct shards the staged ops touch, in
// ascending stripe order, and returns the matching unlock.
func (c *Collection) lockShards(staged []TxnOp) (unlock func()) {
	seen := make(map[int]struct{}, len(staged))
	idxs := make([]int, 0, len(staged))
	for _, op := range staged {
		i := c.shardIndexFor(op.ID)
		if _, ok := seen[i]; !ok {
			seen[i] = struct{}{}
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		c.shards[i].mu.Lock()
	}
	return func() {
		for j := len(idxs) - 1; j >= 0; j-- {
			c.shards[idxs[j]].mu.Unlock()
		}
	}
}

// checkIndexableLocked verifies the document can enter every index
// fragment of its shard — the exact failure conditions of
// indexDocLocked, checked before any state changes. Caller holds the
// shard's write lock.
// lint:holds s.mu
func (s *shard) checkIndexableLocked(collection string, d *Doc) error {
	for field := range s.hashIdx {
		v, ok := d.F[field]
		if !ok {
			continue
		}
		if _, err := indexKey(v); err != nil {
			return fmt.Errorf("docstore: indexing %s.%s: %w", collection, field, err)
		}
	}
	return nil
}

// sameFields reports whether two normalized field sets hold the same
// values, floats compared bit for bit: the test that tells a re-sent add
// from a conflicting one.
func sameFields(a, b Fields) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || !sameValue(av, bv) {
			return false
		}
	}
	return true
}

func sameValue(a, b any) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && sameBits(x, y)
	case []float64:
		y, ok := b.([]float64)
		return ok && slices.EqualFunc(x, y, sameBits)
	case []byte:
		y, ok := b.([]byte)
		return ok && bytes.Equal(x, y)
	case []string:
		y, ok := b.([]string)
		return ok && slices.Equal(x, y)
	default: // nil, string, int64 and bool compare as values
		return a == b
	}
}
