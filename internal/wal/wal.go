// Package wal implements the append-only write-ahead log under the
// docstore's durability plane. Records are opaque payloads framed as
//
//	[u32 length][u32 CRC32-C][u64 LSN][payload]
//
// (all little-endian; the checksum covers LSN and payload) appended to
// one segment file per generation. An append takes its log sequence
// number under the same lock that writes its frame, so a segment holds
// LSNs in order and generations follow each other: whatever a crash cuts
// off the tail, what is left is a prefix of the commits. Open truncates
// each segment at the first torn or corrupt record rather than failing
// startup — a crash mid-append loses at most the record being written.
//
// Durability is a policy knob: SyncAlways fsyncs on every append (commit
// acknowledgement implies durability), SyncInterval fsyncs on a
// background tick (bounded loss window), SyncOff leaves flushing to the
// OS (crash-consistent but lossy). Under every policy a power cut
// recovers an LSN prefix: commits may be lost, never reordered.
//
// Checkpoint bounds the log: it rotates to a fresh segment generation,
// has the caller re-emit its whole state as records into one checkpoint
// file in the same frame format, and deletes the generations that file
// supersedes. Open hands the checkpoint's records back first, then the
// log's. Damage is not treated alike: a bad log tail is the record a
// crash interrupted and is cut off; a bad checkpoint is the only copy of
// everything below it and fails the open.
//
// All I/O goes through an fsx.FS so the crash-injection harness can cut
// any write short at any byte.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairdms/internal/fsx"
)

// Policy selects when appended records are fsynced.
type Policy uint8

const (
	// SyncAlways fsyncs every append before it returns: a successful
	// commit is durable against power loss.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a background tick: commits may be lost
	// within the last interval, never reordered or torn.
	SyncInterval
	// SyncOff never fsyncs (outside rotation and clean close): the OS
	// decides when bytes reach the disk.
	SyncOff
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

const (
	// magic opens every segment file; a file too short to hold it (or
	// holding something else) is treated as torn at byte 0.
	magic      = "FDWAL001"
	headerSize = len(magic)

	// recHeaderSize frames each record: length, checksum, LSN.
	recHeaderSize = 4 + 4 + 8

	// maxRecordSize bounds a single payload; a length field beyond it is
	// corruption, not a 4 GiB allocation.
	maxRecordSize = 1 << 30

	// checkpointName is the one checkpoint file of a log directory: a
	// segment image (magic, then frames all stamped with the cut LSN)
	// whose last frame is the terminal — checkpointEnd, the number of
	// frames before it, and the first segment generation it does not
	// cover. It only ever appears by atomic rename, so one that does not
	// scan to exactly that shape is damaged, not half-written.
	checkpointName = "checkpoint.wal"
	checkpointEnd  = "FDCKPEND"

	// legacySnapshotName is what compaction wrote before checkpoints. No
	// reader for it exists, and a directory holding one has no log below
	// it either, so Open refuses rather than start empty.
	legacySnapshotName = "snapshot.gz"

	// syncPeriod is SyncInterval's background fsync period: the longest a
	// commit waits to become durable under that policy, so the most a
	// power cut can lose. It costs at most 20 fsyncs a second, and none
	// while the log is idle (Sync skips a clean segment).
	syncPeriod = 50 * time.Millisecond
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy Policy
	// FS is the filesystem (default the real one).
	FS fsx.FS
}

// Record is one recovered log entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Stats is a point-in-time copy of the log's counters.
type Stats struct {
	Appends         int64
	AppendedBytes   int64
	Syncs           int64
	Rotations       int64
	Replays         int64
	ReplayedRecords int64
	TornTruncations int64
	CorruptRecords  int64
	SegmentsRemoved int64
}

// Log is an open write-ahead log. Safe for concurrent use.
type Log struct {
	dir    string
	fs     fsx.FS
	policy Policy
	lsn    atomic.Uint64 // last allocated LSN; advanced only under mu
	closed atomic.Bool

	// mu serializes appends, syncs, rotation and close. An append takes
	// its LSN and writes its frame under it, which is what keeps the
	// segment in LSN order.
	mu    sync.Mutex
	f     fsx.File // guarded by mu; the current generation's segment
	gen   uint64   // guarded by mu; current segment generation
	dirty bool     // guarded by mu; written bytes not yet fsynced

	// ckptMu serializes whole checkpoints (a periodic compactor racing a
	// shutdown compaction must queue, not interleave).
	ckptMu sync.Mutex
	cut    uint64 // guarded by ckptMu; LSN the checkpoint on disk covers

	stop chan struct{} // closes the interval syncer
	done chan struct{}

	appends         atomic.Int64
	appendedBytes   atomic.Int64
	syncs           atomic.Int64
	rotations       atomic.Int64
	replays         atomic.Int64
	replayedRecords atomic.Int64
	tornTruncations atomic.Int64
	corruptRecords  atomic.Int64
	segmentsRemoved atomic.Int64
}

// segmentName formats a segment filename; parseSegmentName inverts it.
// The log writes shard 0 only: other shard numbers are what a writer that
// striped each generation over several files left behind, and still
// replay.
func segmentName(shard int, gen uint64) string {
	return fmt.Sprintf("wal-%04d-%08d.log", shard, gen)
}

func parseSegmentName(name string) (shard int, gen uint64, ok bool) {
	var s int
	var g uint64
	if n, err := fmt.Sscanf(name, "wal-%04d-%08d.log", &s, &g); err != nil || n != 2 {
		return 0, 0, false
	}
	if segmentName(s, g) != name {
		return 0, 0, false
	}
	return s, g, true
}

// Open recovers dir and returns the log positioned for appends plus the
// records to re-apply, in order: the checkpoint's as written, then the
// log's in LSN order. Torn or corrupt log tails are truncated off their
// segment (and counted) rather than failing the open; a damaged
// checkpoint, or a directory compacted before checkpoints existed, fails
// it. Appends go to a fresh segment generation, so replay never rereads
// bytes written after this Open.
func Open(dir string, opt Options) (*Log, []Record, error) {
	fsys := opt.FS
	if fsys == nil {
		fsys = fsx.OS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}

	l := &Log{
		dir:    dir,
		fs:     fsys,
		policy: opt.Policy,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}

	records, maxGen, err := l.replay()
	if err != nil {
		return nil, nil, err
	}
	l.gen = maxGen + 1
	if l.f, err = l.openSegment(l.gen); err != nil {
		return nil, nil, err
	}

	if opt.Policy == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l, records, nil
}

// replay reads the checkpoint, then every segment generation it does not
// cover, truncating each segment at its first torn or corrupt record and
// deleting those left with no record at all. Generations below the
// checkpoint's are what a compaction that crashed after its rename did
// not get to delete: they are removed unread.
//
// lint:holds l.ckptMu
// (runs inside Open, before the log is shared.)
func (l *Log) replay() ([]Record, uint64, error) {
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: read dir %s: %w", l.dir, err)
	}
	for _, e := range entries {
		if e.Name() == legacySnapshotName {
			return nil, 0, fmt.Errorf("wal: %s was compacted by a version that wrote %s, which this one cannot read",
				l.dir, filepath.Join(l.dir, legacySnapshotName))
		}
	}
	records, ckptGen, err := l.readCheckpoint()
	if err != nil {
		return nil, 0, err
	}
	fromCheckpoint := len(records)
	maxGen, maxLSN := ckptGen, l.cut
	stale := false
	for _, e := range entries {
		path := filepath.Join(l.dir, e.Name())
		if e.Name() == checkpointName+".tmp" {
			// A compaction died before its rename; nothing refers to it.
			if err := l.fs.Remove(path); err != nil {
				return nil, 0, fmt.Errorf("wal: remove stray %s: %w", path, err)
			}
			continue
		}
		_, gen, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		if gen < ckptGen {
			stale = true
			continue
		}
		if gen > maxGen {
			maxGen = gen
		}
		data, err := l.fs.ReadFile(path)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: read segment %s: %w", path, err)
		}
		recs, keep := l.scanSegment(data)
		if len(recs) == 0 {
			// Nothing in it: an earlier run's untouched generation (every
			// Open starts one, and an idle Checkpoint deletes none) or a
			// first record that never completed.
			if err := l.fs.Remove(path); err != nil {
				return nil, 0, fmt.Errorf("wal: remove empty segment %s: %w", path, err)
			}
			continue
		}
		if keep < int64(len(data)) {
			if err := l.fs.Truncate(path, keep); err != nil {
				return nil, 0, fmt.Errorf("wal: truncate torn segment %s: %w", path, err)
			}
		}
		for _, r := range recs {
			if r.LSN > maxLSN {
				maxLSN = r.LSN
			}
		}
		records = append(records, recs...)
	}
	// One generation's segment is already in LSN order and ReadDir lists
	// generations in order; the sort orders a directory whose generations
	// were striped over several files.
	logged := records[fromCheckpoint:]
	sort.Slice(logged, func(i, j int) bool { return logged[i].LSN < logged[j].LSN })
	if stale {
		if err := l.supersede(ckptGen); err != nil {
			return nil, 0, err
		}
	}
	l.lsn.Store(maxLSN)
	l.replays.Add(1)
	l.replayedRecords.Add(int64(len(records)))
	return records, maxGen, nil
}

// readCheckpoint returns the checkpoint's records and the first segment
// generation it does not cover (no checkpoint: none and 0), and sets
// l.cut. Anything but a whole file ending in a terminal frame that counts
// the frames before it is an error: the segments it replaced are gone, so
// there is nothing to fall back to.
//
// lint:holds l.ckptMu
func (l *Log) readCheckpoint() ([]Record, uint64, error) {
	path := filepath.Join(l.dir, checkpointName)
	data, err := l.fs.ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: read checkpoint %s: %w", path, err)
	}
	recs, keep := l.scanSegment(data)
	if keep < int64(len(data)) {
		return nil, 0, fmt.Errorf("wal: checkpoint %s is damaged at byte %d of %d", path, keep, len(data))
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("wal: checkpoint %s has no terminal frame", path)
	}
	end := recs[len(recs)-1]
	recs = recs[:len(recs)-1]
	if len(end.Payload) != len(checkpointEnd)+16 || string(end.Payload[:len(checkpointEnd)]) != checkpointEnd {
		return nil, 0, fmt.Errorf("wal: checkpoint %s has no terminal frame", path)
	}
	count := binary.LittleEndian.Uint64(end.Payload[len(checkpointEnd):])
	if count != uint64(len(recs)) {
		return nil, 0, fmt.Errorf("wal: checkpoint %s holds %d records, its terminal frame says %d", path, len(recs), count)
	}
	l.cut = end.LSN
	return recs, binary.LittleEndian.Uint64(end.Payload[len(checkpointEnd)+8:]), nil
}

// scanSegment decodes records from one segment image and returns them
// with the byte offset up to which the file is valid. Anything past that
// offset is a torn tail (not enough bytes for a whole record) or a
// corrupt record (checksum or length-field mismatch); either way the scan
// stops there. Payloads alias data.
func (l *Log) scanSegment(data []byte) ([]Record, int64) {
	if len(data) < headerSize || string(data[:headerSize]) != magic {
		if len(data) >= headerSize {
			l.corruptRecords.Add(1)
		} else if len(data) > 0 {
			l.tornTruncations.Add(1)
		}
		return nil, 0
	}
	var recs []Record
	off := int64(headerSize)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return recs, off
		}
		if len(rest) < recHeaderSize {
			l.tornTruncations.Add(1)
			return recs, off
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		lsn := binary.LittleEndian.Uint64(rest[8:16])
		if n > maxRecordSize {
			l.corruptRecords.Add(1)
			return recs, off
		}
		end := recHeaderSize + int(n)
		if len(rest) < end {
			l.tornTruncations.Add(1)
			return recs, off
		}
		payload := rest[recHeaderSize:end:end]
		crc := crc32.Update(0, crcTable, rest[8:16])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != sum {
			l.corruptRecords.Add(1)
			return recs, off
		}
		recs = append(recs, Record{LSN: lsn, Payload: payload})
		off += int64(end)
	}
}

// appendFrame appends payload to dst framed as one record stamped lsn.
func appendFrame(dst []byte, lsn uint64, payload []byte) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, recHeaderSize)...)
	dst = append(dst, payload...)
	frame := dst[at:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(frame[8:16], lsn)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Update(0, crcTable, frame[8:]))
	return dst
}

// Append frames payload as one record, stamps it with the next LSN, and
// writes it to the current segment. Under SyncAlways it returns only
// after the record is fsynced.
func (l *Log) Append(payload []byte) (uint64, error) {
	buf := make([]byte, 0, recHeaderSize+len(payload))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return 0, errors.New("wal: log closed")
	}
	lsn := l.lsn.Load() + 1
	frame := appendFrame(buf, lsn, payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.lsn.Store(lsn)
	l.dirty = true
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.dirty = false
		l.syncs.Add(1)
	}
	l.appends.Add(1)
	l.appendedBytes.Add(int64(len(frame)))
	return lsn, nil
}

// Sync fsyncs the current segment if anything was written since the
// last fsync.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty || l.closed.Load() {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.syncs.Add(1)
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(syncPeriod)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// Policy returns the fsync policy the log was opened with.
func (l *Log) Policy() Policy { return l.policy }

// Checkpoint replaces everything logged so far with the records write
// emits, which must add up to the caller's whole state: it rotates to a
// fresh segment generation, streams the emitted records into the
// checkpoint file (tmp + fsync + rename), fsyncs the directory, and only
// then deletes the generations below the rotation. fence is held across
// the rotation alone; the caller's appenders hold its read side from
// Append until the record's effect is visible to write, so everything in
// the deleted generations is in what write emits, and appends racing
// write land in generations that stay. It reports false, having done
// nothing, when no LSN was allocated since the last checkpoint. Calls
// serialize.
func (l *Log) Checkpoint(fence sync.Locker, write func(emit func(payload []byte) error) error) (bool, error) {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if l.lsn.Load() == l.cut {
		return false, nil
	}

	fence.Lock()
	gen, err := l.rotate()
	cut := l.lsn.Load()
	fence.Unlock()
	if err != nil {
		return false, err
	}

	err = fsx.WriteAtomicFS(l.fs, filepath.Join(l.dir, checkpointName), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<20)
		if _, err := bw.WriteString(magic); err != nil {
			return err
		}
		var frame []byte
		var count uint64
		emit := func(payload []byte) error {
			frame = appendFrame(frame[:0], cut, payload)
			count++
			_, err := bw.Write(frame)
			return err
		}
		if err := write(emit); err != nil {
			return err
		}
		end := binary.LittleEndian.AppendUint64([]byte(checkpointEnd), count)
		if err := emit(binary.LittleEndian.AppendUint64(end, gen)); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return false, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if err := l.supersede(gen); err != nil {
		return false, err
	}
	l.cut = cut
	return true, nil
}

// rotate fsyncs and closes the current segment and opens the next
// generation's; subsequent appends land there. It returns the new
// generation number: every record appended before the call lives in a
// generation strictly below it.
func (l *Log) rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return 0, errors.New("wal: log closed")
	}
	if err := l.f.Sync(); err != nil {
		return 0, fmt.Errorf("wal: rotate sync: %w", err)
	}
	f, err := l.openSegment(l.gen + 1)
	if err != nil {
		return 0, err
	}
	old := l.f
	l.f, l.dirty = f, false
	l.gen++
	l.rotations.Add(1)
	if err := old.Close(); err != nil {
		return 0, fmt.Errorf("wal: rotate close: %w", err)
	}
	return l.gen, nil
}

// openSegment creates generation gen's segment and writes its header. A
// segment whose header did not make it is removed, so the generation can
// be tried again.
func (l *Log) openSegment(gen uint64) (fsx.File, error) {
	path := filepath.Join(l.dir, segmentName(0, gen))
	f, err := l.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		l.fs.Remove(path)
		return nil, fmt.Errorf("wal: write segment header %s: %w", path, err)
	}
	return f, nil
}

// supersede deletes every segment file of a generation below gen, the
// ones a checkpoint has made redundant. The directory is fsynced first:
// without that barrier the disk could persist the unlinks but not the
// checkpoint's rename, losing committed data.
func (l *Log) supersede(gen uint64) error {
	if err := l.fs.SyncDir(l.dir); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", l.dir, err)
	}
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir %s: %w", l.dir, err)
	}
	for _, e := range entries {
		_, g, ok := parseSegmentName(e.Name())
		if !ok || g >= gen {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, e.Name())); err != nil {
			return fmt.Errorf("wal: remove segment %s: %w", e.Name(), err)
		}
		l.segmentsRemoved.Add(1)
	}
	return nil
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:         l.appends.Load(),
		AppendedBytes:   l.appendedBytes.Load(),
		Syncs:           l.syncs.Load(),
		Rotations:       l.rotations.Load(),
		Replays:         l.replays.Load(),
		ReplayedRecords: l.replayedRecords.Load(),
		TornTruncations: l.tornTruncations.Load(),
		CorruptRecords:  l.corruptRecords.Load(),
		SegmentsRemoved: l.segmentsRemoved.Load(),
	}
}

// Close stops the background syncer, fsyncs the segment, and closes it.
// A clean close is durable regardless of policy.
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Abort closes the log without flushing or fsyncing — the crash path.
// Tests use it to abandon a log exactly as a dying process would, leaving
// whatever the OS (or the fault-injection layer) already accepted.
func (l *Log) Abort() {
	if !l.closed.CompareAndSwap(false, true) {
		return
	}
	close(l.stop)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	l.f.Close()
}
