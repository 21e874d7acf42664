package docstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"fairdms/internal/fsx"
	"fairdms/internal/wal"
)

// checkpointChunk is how many documents one checkpoint record adds: large
// enough that a record's frame header and commit preamble are noise,
// small enough that a record stays far below the WAL's frame limit.
const checkpointChunk = 256

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir holds the WAL segments and the compaction checkpoint.
	Dir string
	// Policy is the WAL fsync policy (default wal.SyncAlways).
	Policy wal.Policy
	// FS substitutes a filesystem; tests inject faults through it.
	FS fsx.FS
}

// DurableStore is a Store whose every committed write survives a crash
// (to the extent the fsync policy promises): commits append one WAL
// record before they apply, startup replays the directory's records, and
// Compact re-logs the live state as a checkpoint that replaces the log
// so far, so replay stays cheap. All Store and Collection APIs work
// unchanged; writes on any collection of this store are logged
// automatically.
type DurableStore struct {
	*Store
	log *wal.Log

	// ckptMu fences commits against the compaction cut: every commit
	// holds the read side from WAL append through in-memory apply, and
	// the log takes the write side for the instant it rotates. That makes
	// the cut a consistent point — every record below it is fully applied
	// before the checkpoint scan starts, and every later commit lands in
	// segments the checkpoint keeps.
	ckptMu sync.RWMutex

	compactions   atomic.Int64
	replayedTxns  atomic.Int64
	replaySkipped atomic.Int64
}

// WalStats is a point-in-time copy of a durable store's WAL counters:
// append/sync volume on the write path, replay/truncation counters from
// the last recovery, and compaction progress — the dms_wal_* families of
// dmsd's /metricsz. TornTruncations and CorruptRecords count tails the
// replayer cut off — nonzero after an unclean shutdown is expected,
// growth during steady state is not.
type WalStats struct {
	Enabled          bool
	Policy           string // fsync policy: always | interval | off
	Appends          int64
	AppendedBytes    int64
	Syncs            int64
	Replays          int64
	ReplayedRecords  int64
	ReplayedTxns     int64
	ReplaySkippedOps int64
	TornTruncations  int64
	CorruptRecords   int64
	Rotations        int64
	Compactions      int64
	SegmentsRemoved  int64
}

// OpenDurable opens (or creates) a WAL-durable store in dir: it re-applies
// every record the directory holds — the checkpoint's, then the log's,
// with torn or corrupt log tails truncated rather than failing — and
// returns the store ready for reads and durable writes. A damaged
// checkpoint fails the open.
func OpenDurable(opts DurableOptions) (*DurableStore, error) {
	if opts.Dir == "" {
		return nil, errors.New("docstore: durable store needs a directory")
	}
	lg, records, err := wal.Open(opts.Dir, wal.Options{Policy: opts.Policy, FS: opts.FS})
	if err != nil {
		return nil, fmt.Errorf("docstore: %w", err)
	}

	ds := &DurableStore{Store: NewStore(), log: lg}
	for _, rec := range records {
		commit, err := decodeCommit(rec.Payload)
		if err != nil {
			// The frame checksum passed, so this is a version skew or
			// encoder bug, not disk corruption; skip rather than refuse
			// to start, and surface it in the counters.
			ds.replaySkipped.Add(1)
			continue
		}
		ds.replayCommit(commit)
	}

	ds.Store.attachLogger(ds)
	return ds, nil
}

// replayCommit re-applies one decoded WAL record leniently: the log
// records after a fuzzy checkpoint may repeat effects the checkpoint
// already holds, so inserts overwrite, updates and deletes of missing
// documents are skipped (and counted), and index creation is idempotent.
func (ds *DurableStore) replayCommit(commit walCommit) {
	c := ds.Store.Collection(commit.Collection)
	for _, op := range commit.Ops {
		switch op.Kind {
		case TxnAdd, TxnUpdate, TxnDelete:
			if !c.replayOp(op) {
				ds.replaySkipped.Add(1)
			}
		case txnCreateHashIndex:
			if err := c.CreateHashIndex(op.ID); err != nil {
				ds.replaySkipped.Add(1)
			}
		default:
			ds.replaySkipped.Add(1)
		}
	}
	c.ensureNextID(commit.NextID)
	ds.replayedTxns.Add(1)
}

// logTxn implements commitLogger: it appends the commit as one WAL record
// under the checkpoint fence, and hands the caller the fence release to
// run after the in-memory apply.
func (ds *DurableStore) logTxn(rec *walCommit) (func(), error) {
	payload, err := encodeCommit(rec)
	if err != nil {
		return nil, err
	}
	ds.ckptMu.RLock()
	if _, err := ds.log.Append(payload); err != nil {
		ds.ckptMu.RUnlock()
		return nil, err
	}
	return ds.ckptMu.RUnlock, nil
}

// Compact re-logs the store's live state as a checkpoint and deletes the
// segments it supersedes, bounding both replay time and disk growth.
// Writers keep committing during the scan; only the rotation instant
// excludes them. Nothing logged since the last checkpoint means nothing
// to do. Safe to call concurrently (calls serialize) and at any time.
func (ds *DurableStore) Compact() error {
	wrote, err := ds.log.Checkpoint(&ds.ckptMu, ds.Store.emitCheckpoint)
	if err != nil {
		return fmt.Errorf("docstore: compact: %w", err)
	}
	if wrote {
		ds.compactions.Add(1)
	}
	return nil
}

// emitCheckpoint emits the store as the commit records that rebuild it:
// per collection its index creations, then its documents as TxnAdd chunks.
// The scan is fuzzy — commits racing it may or may not be captured — and
// either way is correct: they are also in the log the checkpoint does not
// replace, and replay re-applies them leniently and idempotently.
func (s *Store) emitCheckpoint(emit func(payload []byte) error) error {
	for _, name := range s.Names() {
		c := s.Collection(name)
		// Published documents are never mutated (writers replace them
		// copy-on-write), so the scan only collects pointers.
		var docs []*Doc
		for _, sh := range c.shards {
			sh.mu.RLock()
			for _, d := range sh.docs {
				docs = append(docs, d)
			}
			sh.mu.RUnlock()
		}
		// Read the ID sequence after the shard scan: a concurrent Add
		// can commit a doc with sequence N+1 while we scan, and the
		// recorded NextID must be ≥ any captured doc's sequence number or
		// a reopened store would re-issue it. Over-reserving (counting an
		// insert we did not capture) is harmless.
		rec := walCommit{Collection: name, NextID: c.nextID.Load()}
		flush := func() error {
			payload, err := encodeCommit(&rec)
			if err != nil {
				return err
			}
			rec.Ops = rec.Ops[:0]
			return emit(payload)
		}
		for _, field := range c.Indexes() {
			rec.Ops = append(rec.Ops, TxnOp{Kind: txnCreateHashIndex, ID: field})
		}
		// Emitted even without an index: this record is what brings back
		// an empty collection and its ID sequence.
		if err := flush(); err != nil {
			return err
		}
		for _, d := range docs {
			rec.Ops = append(rec.Ops, TxnOp{Kind: TxnAdd, ID: d.ID, F: d.F})
			if len(rec.Ops) == checkpointChunk {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if len(rec.Ops) > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// WalStats returns a copy of the durability counters.
func (ds *DurableStore) WalStats() WalStats {
	ls := ds.log.Stats()
	return WalStats{
		Enabled:          true,
		Policy:           ds.log.Policy().String(),
		Appends:          ls.Appends,
		AppendedBytes:    ls.AppendedBytes,
		Syncs:            ls.Syncs,
		Replays:          ls.Replays,
		ReplayedRecords:  ls.ReplayedRecords,
		ReplayedTxns:     ds.replayedTxns.Load(),
		ReplaySkippedOps: ds.replaySkipped.Load(),
		TornTruncations:  ls.TornTruncations,
		CorruptRecords:   ls.CorruptRecords,
		Rotations:        ls.Rotations,
		Compactions:      ds.compactions.Load(),
		SegmentsRemoved:  ls.SegmentsRemoved,
	}
}

// Close fsyncs outstanding WAL writes and closes the log. The store
// remains readable; further writes fail. Daemons wanting a fast next
// startup call Compact first.
func (ds *DurableStore) Close() error {
	return ds.log.Close()
}

// Abort drops the store without flushing — the simulated-crash path used
// by recovery tests. Buffered, unsynced WAL bytes are abandoned exactly
// as a dying process would abandon them.
func (ds *DurableStore) Abort() {
	ds.log.Abort()
}

// replayOp applies one document op leniently and reports whether it had
// effect. Used only during replay (single-goroutine, store not yet
// shared), but it still takes the shard locks it needs.
func (c *Collection) replayOp(op TxnOp) bool {
	s := c.shardFor(op.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Kind {
	case TxnAdd:
		if old, ok := s.docs[op.ID]; ok {
			s.unindexDocLocked(old)
		}
		d := &Doc{ID: op.ID, F: op.F}
		s.docs[op.ID] = d
		if err := s.indexDocLocked(c.name, d); err != nil {
			s.unindexDocLocked(d)
			delete(s.docs, op.ID)
			return false
		}
		return true
	case TxnUpdate:
		old, ok := s.docs[op.ID]
		if !ok {
			return false
		}
		merged := &Doc{ID: op.ID, F: cloneFields(old.F)}
		for k, v := range op.F {
			merged.F[k] = v
		}
		s.unindexDocLocked(old)
		s.docs[op.ID] = merged
		if err := s.indexDocLocked(c.name, merged); err != nil {
			s.unindexDocLocked(merged)
			s.docs[op.ID] = old
			s.indexDocLocked(c.name, old)
			return false
		}
		return true
	case TxnDelete:
		d, ok := s.docs[op.ID]
		if !ok {
			return false
		}
		s.unindexDocLocked(d)
		delete(s.docs, op.ID)
		return true
	}
	return false
}

// ensureNextID raises the ID sequence to at least n so replayed commits
// never cause a future generated ID to collide with a recovered one.
func (c *Collection) ensureNextID(n uint64) {
	for {
		cur := c.nextID.Load()
		if cur >= n || c.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}
