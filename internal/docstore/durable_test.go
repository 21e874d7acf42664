package docstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fairdms/internal/wal"
)

// checkpointFile is where a compaction leaves the store's state.
func checkpointFile(dir string) string { return filepath.Join(dir, "checkpoint.wal") }

// compactAndCrash checkpoints ds and then drops it without a clean close,
// so whatever the next OpenDurable sees was made durable by Compact alone.
func compactAndCrash(t *testing.T, ds *DurableStore) {
	t.Helper()
	if err := ds.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	ds.Abort()
}

func openDurable(t *testing.T, dir string, opts DurableOptions) *DurableStore {
	t.Helper()
	opts.Dir = dir
	ds, err := OpenDurable(opts)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return ds
}

func TestDurableRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	c := ds.Collection("peaks")
	if _, err := insertDoc(c, "a", Fields{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := insertDoc(c, "b", Fields{"n": 2}); err != nil {
		t.Fatal(err)
	}
	if err := updateDoc(c, "a", Fields{"n": 10}); err != nil {
		t.Fatal(err)
	}
	if err := deleteDoc(c, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyTxn([]TxnOp{{Kind: TxnAdd, ID: "c", F: Fields{"n": 3}}, {Kind: TxnAdd, ID: "d", F: Fields{"n": 4}}}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds2.Close()
	c2 := ds2.Collection("peaks")
	if c2.Count() != 3 {
		t.Fatalf("count after replay = %d; want 3", c2.Count())
	}
	for id, n := range map[string]int64{"a": 10, "c": 3, "d": 4} {
		d, err := c2.Get(id)
		if err != nil || d.F["n"] != n {
			t.Fatalf("%s after replay = %v, %v; want n=%d", id, d, err, n)
		}
	}
	if _, err := c2.Get("b"); err == nil {
		t.Fatal("deleted doc resurrected by replay")
	}
	if st := ds2.WalStats(); st.ReplayedTxns != 5 {
		t.Fatalf("ReplayedTxns = %d; want 5", st.ReplayedTxns)
	}
}

func TestDurableReplayRebuildsIndexes(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	c := ds.Collection("peaks")
	if err := c.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := insertDoc(c, "", Fields{"k": i % 3, "t": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds2.Close()
	c2 := ds2.Collection("peaks")
	// Index creation was WAL-logged, so the reopened collection answers
	// indexed queries identically to a brute-force scan.
	ids, err := c2.FindIDs(Query{Filters: []Filter{Eq("k", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 7 {
		t.Fatalf("Eq(k,1) after replay = %d ids; want 7", len(ids))
	}
	ids, err = c2.FindIDs(Query{Filters: []Filter{Eq("t", 9)}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("Eq(t,9) after replay = %d ids, %v; want 1", len(ids), err)
	}
}

// TestDurableReplaySkipsUnknownKinds: a log may hold ops of kinds this
// store no longer writes (5 built an ordered index, 6 dropped a
// collection). Replay skips and counts each one and applies the rest.
func TestDurableReplaySkipsUnknownKinds(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	c := ds.Collection("kept")
	if _, err := insertDoc(c, "x", Fields{"n": 1}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []walCommit{
		{Collection: "kept", Ops: []TxnOp{{Kind: 5, ID: "n"}, {Kind: TxnAdd, ID: "y", F: Fields{"n": int64(2)}}}},
		{Collection: "kept", Ops: []TxnOp{{Kind: 6}}},
	} {
		release, err := ds.logTxn(&rec)
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	ds.Close()

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds2.Close()
	c2 := ds2.Collection("kept")
	if ids, _ := c2.FindIDs(Query{}); !equalIDs(ids, []string{"x", "y"}) {
		t.Fatalf("ids after replay = %v; want [x y]", ids)
	}
	if idx := c2.Indexes(); len(idx) != 0 {
		t.Fatalf("indexes after replay = %v; want none", idx)
	}
	if st := ds2.WalStats(); st.ReplaySkippedOps != 2 || st.ReplayedTxns != 3 {
		t.Fatalf("skipped %d ops over %d txns; want 2 over 3", st.ReplaySkippedOps, st.ReplayedTxns)
	}
}

func TestDurableNoIDReuseAfterReplay(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	c := ds.Collection("peaks")
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := insertDoc(c, "", Fields{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete them all: replay must still not hand the same IDs out again.
	for _, id := range ids {
		if err := deleteDoc(c, id); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds2.Close()
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	for i := 0; i < 5; i++ {
		id, err := insertDoc(ds2.Collection("peaks"), "", Fields{"n": i})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("generated id %s reused after replay", id)
		}
	}
}

func TestCompactFoldsWALIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	c := ds.Collection("peaks")
	for i := 0; i < 50; i++ {
		if _, err := insertDoc(c, fmt.Sprintf("d%02d", i), Fields{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	st := ds.WalStats()
	if st.Compactions != 1 || st.SegmentsRemoved == 0 {
		t.Fatalf("stats after compact = %+v; want 1 compaction with segments removed", st)
	}
	// Post-compaction writes land in the new generation.
	if _, err := insertDoc(c, "post", Fields{"n": 999}); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds2.Close()
	c2 := ds2.Collection("peaks")
	if c2.Count() != 51 {
		t.Fatalf("count after compact+reopen = %d; want 51", c2.Count())
	}
	st2 := ds2.WalStats()
	// The 50 pre-compaction txns came back as the checkpoint's two records
	// (the collection's metadata, one 50-add chunk); only the post-compaction
	// txn replayed from the log.
	if st2.ReplayedTxns != 3 {
		t.Fatalf("ReplayedTxns after compaction = %d; want 3", st2.ReplayedTxns)
	}
}

// TestIdleCompactIsNoOp: a compaction with nothing logged since the last
// one must not rotate the log or re-serialise the store.
func TestIdleCompactIsNoOp(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	defer ds.Close()
	for i := 0; i < 20; i++ {
		if _, err := insertDoc(ds.Collection("peaks"), "", Fields{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(checkpointFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	before := ds.WalStats()
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(checkpointFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	after := ds.WalStats()
	if !bytes.Equal(first, second) {
		t.Fatal("idle compaction rewrote the checkpoint")
	}
	if after.Rotations != before.Rotations || after.Compactions != 1 {
		t.Fatalf("idle compaction: rotations %d → %d, compactions %d; want no rotation and 1",
			before.Rotations, after.Rotations, after.Compactions)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint*"))
	if len(ckpts) != 1 {
		t.Fatalf("checkpoint files = %v; want exactly one", ckpts)
	}
}

func TestCompactConcurrentWithWriters(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	c := ds.Collection("peaks")
	const writers, docs = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				if _, err := insertDoc(c, fmt.Sprintf("w%d-%03d", w, i), Fields{"n": i}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := ds.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	ds.Close()

	ds2 := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	defer ds2.Close()
	if got := ds2.Collection("peaks").Count(); got != writers*docs {
		t.Fatalf("count after concurrent compactions = %d; want %d", got, writers*docs)
	}
}

// TestSaveLoadRoundTrip: what Compact saves, OpenDurable loads — the
// documents, the indexes and the ID sequence, from the checkpoint alone.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{})
	c := ds.Collection("peaks")
	if err := c.CreateHashIndex("cluster"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	var last string
	for i := 0; i < 26; i++ {
		id, err := insertDoc(c, "", Fields{"cluster": i % 5, "t": float64(i), "blob": []byte{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		last = id
	}
	// With its newest document gone the ID sequence is no longer derivable
	// from the documents: the checkpoint has to carry it.
	if err := deleteDoc(c, last); err != nil {
		t.Fatal(err)
	}
	compactAndCrash(t, ds)
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*-00000001.log")); len(segs) != 0 {
		t.Fatalf("pre-compaction segments %v survived; the reload below would not be from the checkpoint", segs)
	}

	ds2 := openDurable(t, dir, DurableOptions{})
	defer ds2.Close()
	c2 := ds2.Collection("peaks")
	if c2.Count() != 25 {
		t.Fatalf("loaded %d docs, want 25", c2.Count())
	}
	if idx := c2.Indexes(); !equalIDs(idx, []string{"cluster", "t"}) {
		t.Fatalf("indexes = %v", idx)
	}
	ids, err := c2.FindIDs(Query{Filters: []Filter{Eq("cluster", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("cluster 2 has %d docs after reload", len(ids))
	}
	ids, err = c2.FindIDs(Query{Filters: []Filter{Eq("t", 9)}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("Eq(t,9) after reload = %d ids, %v; want 1", len(ids), err)
	}
	d, err := c2.Get(ids[0])
	if err != nil || !bytes.Equal(d.F["blob"].([]byte), []byte{1, 2, 3}) {
		t.Fatalf("blob after reload = %v, %v", d, err)
	}
	// New inserts continue the ID sequence past the deleted document.
	id, err := insertDoc(c2, "", Fields{"cluster": 0, "t": 99.0})
	if err != nil {
		t.Fatal(err)
	}
	if id == last {
		t.Fatalf("generated id %s reused after reload", id)
	}
}

// TestShardedSaveLoadRoundTrip reloads a checkpoint into a store with a
// different in-memory stripe count: the records are shard-agnostic, so
// docs, indexes, and the ID sequence survive a layout change.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := openDurable(t, dir, DurableOptions{})
	c := ds.Collection("peaks")
	if err := c.CreateHashIndex("cluster"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	batch := make([]Fields, 120)
	for i := range batch {
		batch[i] = Fields{"cluster": i % 6, "t": float64(i)}
	}
	if _, err := c.InsertMany(batch); err != nil {
		t.Fatal(err)
	}
	compactAndCrash(t, ds)
	// The temp file must not linger after a successful compaction.
	if _, err := os.Stat(checkpointFile(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale temp checkpoint left behind: %v", err)
	}

	runtime.GOMAXPROCS(8)
	ds2 := openDurable(t, dir, DurableOptions{})
	defer ds2.Close()
	c2 := ds2.Collection("peaks")
	if len(c2.shards) == len(c.shards) {
		t.Fatalf("reloaded into the same %d stripes; the test needs a layout change", len(c.shards))
	}
	if c2.Count() != 120 {
		t.Fatalf("reloaded %d docs, want 120", c2.Count())
	}
	before, _ := c.FindIDs(Query{})
	after, _ := c2.FindIDs(Query{})
	if !equalIDs(before, after) {
		t.Fatal("IDs differ after reload")
	}
	for k := 0; k < 6; k++ {
		q := Query{Filters: []Filter{Eq("cluster", k)}}
		a, _ := c.FindIDs(q)
		b, _ := c2.FindIDs(q)
		if !equalIDs(a, b) {
			t.Fatalf("cluster %d differs after reload", k)
		}
	}
	q := Query{Filters: []Filter{Eq("t", 100)}}
	a, _ := c.FindIDs(q)
	b, _ := c2.FindIDs(q)
	if len(a) != 1 || !equalIDs(a, b) {
		t.Fatalf("index on t differs after reload: %v vs %v", a, b)
	}
	// ID sequence continues without collision.
	id, err := insertDoc(c2, "", Fields{"cluster": 0, "t": 999.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Get(id); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsPartialWrite: a checkpoint cut short (a partial copy) or
// with one flipped byte must fail the open rather than yield a silently
// incomplete store — unlike a log tail there is nothing below it to fall
// back on, so it is never truncated and carried on from.
func TestLoadRejectsPartialWrite(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	batch := make([]Fields, 500)
	for i := range batch {
		batch[i] = Fields{"v": i, "pad": make([]byte, 512)}
	}
	if _, err := ds.Collection("x").InsertMany(batch); err != nil {
		t.Fatal(err)
	}
	compactAndCrash(t, ds)
	raw, err := os.ReadFile(checkpointFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	damaged := map[string][]byte{}
	for _, frac := range []float64{0.25, 0.6, 0.95} {
		cut := int(float64(len(raw)) * frac)
		damaged[fmt.Sprintf("truncated to %d/%d bytes", cut, len(raw))] = raw[:cut]
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(raw)/2] ^= 0x01
	damaged["one flipped byte"] = flipped
	for what, image := range damaged {
		if err := os.WriteFile(checkpointFile(dir), image, 0o644); err != nil {
			t.Fatal(err)
		}
		if ds, err := OpenDurable(DurableOptions{Dir: dir}); err == nil {
			n := ds.Collection("x").Count()
			ds.Abort()
			t.Fatalf("OpenDurable accepted a checkpoint %s (%d of 500 docs)", what, n)
		}
		if after, _ := os.ReadFile(checkpointFile(dir)); !bytes.Equal(after, image) {
			t.Fatalf("failed open of a checkpoint %s modified it", what)
		}
	}
	// The undamaged image still opens: the loop above failed on the damage.
	if err := os.WriteFile(checkpointFile(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ds2 := openDurable(t, dir, DurableOptions{})
	defer ds2.Close()
	if got := ds2.Collection("x").Count(); got != 500 {
		t.Fatalf("restored checkpoint loads %d docs; want 500", got)
	}
}

// TestOpenRejectsUnterminatedCheckpoint: a missing checkpoint is a fresh
// start, so what must never be mistaken for one is a checkpoint whose
// every frame checks out and whose terminal frame is missing.
func TestOpenRejectsUnterminatedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	for i := 0; i < 10; i++ {
		if _, err := insertDoc(ds.Collection("peaks"), "", Fields{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	compactAndCrash(t, ds)
	raw, err := os.ReadFile(checkpointFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames (8-byte file header, then 16-byte frame headers whose
	// first field is the payload length) to find where the last one starts.
	lastStart := 8
	for off := 8; off < len(raw); {
		lastStart = off
		off += 16 + int(uint32(raw[off])|uint32(raw[off+1])<<8|uint32(raw[off+2])<<16|uint32(raw[off+3])<<24)
	}
	if err := os.WriteFile(checkpointFile(dir), raw[:lastStart], 0o644); err != nil {
		t.Fatal(err)
	}
	if ds, err := OpenDurable(DurableOptions{Dir: dir}); err == nil {
		ds.Abort()
		t.Fatal("OpenDurable accepted a checkpoint without its terminal frame")
	}
}

// TestOpenRefusesOldSnapshotDirectory: a directory compacted by a build
// that wrote snapshot.gz holds its data there and nowhere else. Opening
// it must fail naming the file, not start empty.
func TestOpenRefusesOldSnapshotDirectory(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "snapshot.gz")
	if err := os.WriteFile(old, []byte("\x1f\x8b old store"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDurable(DurableOptions{Dir: dir})
	if err == nil {
		ds.Abort()
		t.Fatal("OpenDurable started empty over an old snapshot.gz")
	}
	if !strings.Contains(err.Error(), old) {
		t.Fatalf("error %q does not name %s", err, old)
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("the refused open removed the old snapshot: %v", err)
	}
}

// TestConcurrentCompactsKeepCheckpointCoherent is the regression test for
// the periodic-compaction vs shutdown-compaction race: concurrent Compact
// calls must serialize, also against writers, and the checkpoint plus log
// they leave must reopen to every acknowledged document.
func TestConcurrentCompactsKeepCheckpointCoherent(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	c := ds.Collection("peaks")
	const writers, docs, compactors = 4, 100, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				if _, err := insertDoc(c, fmt.Sprintf("w%d-%03d", w, i), Fields{"n": w*docs + i}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < compactors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ds.Compact(); err != nil {
				t.Errorf("concurrent Compact: %v", err)
			}
		}()
	}
	wg.Wait()
	ds.Abort()
	if _, err := os.Stat(checkpointFile(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint left behind: %v", err)
	}

	ds2 := openDurable(t, dir, DurableOptions{})
	defer ds2.Close()
	model := make(map[string]Fields, writers*docs)
	for w := 0; w < writers; w++ {
		for i := 0; i < docs; i++ {
			model[fmt.Sprintf("w%d-%03d", w, i)] = Fields{"n": int64(w*docs + i)}
		}
	}
	if err := matchesModel(ds2.Collection("peaks"), model); err != nil {
		t.Fatalf("store reopened after concurrent compactions: %v", err)
	}
}

func TestDurableStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenDurable(DurableOptions{}); err == nil {
		t.Fatal("OpenDurable with no dir should fail")
	}
}
