package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairdms/internal/fsx"
)

func mustOpen(t *testing.T, dir string, opt Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, recs
}

func appendAll(t *testing.T, l *Log, payloads ...string) []uint64 {
	t.Helper()
	lsns := make([]uint64, len(payloads))
	for i, p := range payloads {
		lsn, err := l.Append([]byte(p))
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		lsns[i] = lsn
	}
	return lsns
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpen(t, dir, Options{Policy: SyncAlways})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	lsns := appendAll(t, l, want...)
	for i := 1; i < len(lsns); i++ {
		if lsns[i] != lsns[i-1]+1 {
			t.Fatalf("LSNs not contiguous: %v", lsns)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records; want %d", len(recs), len(want))
	}
	for i, r := range recs {
		// Replay is in LSN order: the global commit order.
		if r.LSN != lsns[i] || string(r.Payload) != want[i] {
			t.Fatalf("record %d = {%d %q}; want {%d %q}", i, r.LSN, r.Payload, lsns[i], want[i])
		}
	}
	if l2.lsn.Load() != lsns[len(lsns)-1] {
		t.Fatalf("last LSN after replay = %d; want %d", l2.lsn.Load(), lsns[len(lsns)-1])
	}
}

// TestReplaySurvivesShardCountChange: a directory written when the log
// striped each generation over four segment files by LSN still replays,
// in LSN order, and the next append carries on after its last LSN.
func TestReplaySurvivesShardCountChange(t *testing.T) {
	dir := t.TempDir()
	const shards, gen = 4, 1
	want := []string{"a", "b", "c", "d", "e", "f"}
	images := make([][]byte, shards)
	for i := range images {
		images[i] = []byte(magic)
	}
	for i, p := range want {
		lsn := uint64(i + 1)
		images[lsn%shards] = appendFrame(images[lsn%shards], lsn, []byte(p))
	}
	for i, image := range images {
		if err := os.WriteFile(filepath.Join(dir, segmentName(i, gen)), image, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	l, recs := mustOpen(t, dir, Options{Policy: SyncAlways})
	if got := fmt.Sprint(payloads(recs)); got != fmt.Sprint(want) {
		t.Fatalf("replay = %s; want %v", got, want)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d; want %d", i, r.LSN, i+1)
		}
	}
	if next := appendAll(t, l, "g")[0]; next != uint64(len(want)+1) {
		t.Fatalf("next append got LSN %d; want %d", next, len(want)+1)
	}
	l.Close()

	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := fmt.Sprint(payloads(recs)); got != "[a b c d e f g]" {
		t.Fatalf("replay after one more append = %s; want [a b c d e f g]", got)
	}
}

// TestPowerCutLeavesAnLSNPrefix: concurrent committers racing a syncer
// (what SyncInterval's background tick does), then a power cut that
// drops every unsynced byte. What replays must be LSNs 1..n with none
// missing: a commit never survives while one stamped before it is lost.
func TestPowerCutLeavesAnLSNPrefix(t *testing.T) {
	const runs, writers, perWriter = 15, 4, 50
	for run := 0; run < runs; run++ {
		dir := t.TempDir()
		fs := fsx.NewFaultFS(fsx.FaultPlan{DropUnsynced: true})
		l, _ := mustOpen(t, dir, Options{Policy: SyncOff, FS: fs})
		var appenders sync.WaitGroup
		for w := 0; w < writers; w++ {
			appenders.Add(1)
			go func() {
				defer appenders.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := l.Append([]byte("commit")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		stop := make(chan struct{})
		synced := make(chan struct{})
		go func() {
			defer close(synced)
			for {
				select {
				case <-stop:
					return
				default:
					if err := l.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
		appenders.Wait()
		close(stop)
		<-synced
		fs.Crash()
		l.Abort()

		l2, recs := mustOpen(t, dir, Options{})
		for i, r := range recs {
			if r.LSN != uint64(i+1) {
				t.Fatalf("run %d: record %d of %d recovered has LSN %d; want %d (an earlier commit was lost)",
					run, i, len(recs), r.LSN, i+1)
			}
		}
		l2.Close()
	}
}

// walSegments lists the segment files currently in dir.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if _, _, ok := parseSegmentName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	// Build a reference single-shard log with three records, then replay
	// a copy truncated at every byte length. At every cut point the
	// replayed prefix must be exactly the records whose frames fit.
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	payloads := []string{"first-record", "second", "third-and-longest-record"}
	appendAll(t, l, payloads...)
	l.Close()

	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v; want one", segs)
	}
	full, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: header, then each record's end offset.
	boundaries := []int{headerSize}
	off := headerSize
	for _, p := range payloads {
		off += recHeaderSize + len(p)
		boundaries = append(boundaries, off)
	}
	if off != len(full) {
		t.Fatalf("frame math: computed %d bytes, file has %d", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, segmentName(0, 1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, recs := mustOpen(t, sub, Options{})
		// Complete records strictly below the cut survive.
		want := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= cut {
				want = i
			}
		}
		if len(recs) != want {
			t.Fatalf("cut at %d: replayed %d records; want %d", cut, len(recs), want)
		}
		for i, r := range recs {
			if string(r.Payload) != payloads[i] {
				t.Fatalf("cut at %d: record %d = %q; want %q", cut, i, r.Payload, payloads[i])
			}
		}
		onBoundary := false
		for _, b := range boundaries {
			if cut == b {
				onBoundary = true
			}
		}
		st := l2.Stats()
		if cut > headerSize && !onBoundary && st.TornTruncations == 0 {
			t.Fatalf("cut at %d: torn tail not counted", cut)
		}
		if onBoundary && st.TornTruncations != 0 {
			t.Fatalf("cut at boundary %d counted %d torn truncations", cut, st.TornTruncations)
		}
		l2.Close()
	}
}

func TestCorruptRecordTruncatesAndCounts(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendAll(t, l, "keep-me", "flip-me", "lost-with-the-corruption")
	l.Close()

	seg := filepath.Join(dir, walSegments(t, dir)[0])
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside the second record.
	off := headerSize + recHeaderSize + len("keep-me") + recHeaderSize + 2
	data[off] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "keep-me" {
		t.Fatalf("replay after bit flip = %v; want just keep-me", recs)
	}
	st := l2.Stats()
	if st.CorruptRecords == 0 {
		t.Fatal("corrupt record not counted")
	}
	// The corrupt tail was truncated away on disk, not just skipped.
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != headerSize+recHeaderSize+len("keep-me") {
		t.Fatalf("segment not truncated: %d bytes", len(after))
	}
}

func TestGarbageHeaderIgnoresSegment(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0, 1)), []byte("not-a-wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := mustOpen(t, dir, Options{})
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("replayed %d records from garbage", len(recs))
	}
	if l.Stats().CorruptRecords == 0 {
		t.Fatal("garbage header not counted as corruption")
	}
}

func TestRotateAndRemoveSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	appendAll(t, l, "old-1", "old-2", "old-3")
	gen, err := l.rotate()
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "new-1", "new-2")
	if err := l.supersede(gen); err != nil {
		t.Fatal(err)
	}
	if l.Stats().SegmentsRemoved == 0 {
		t.Fatal("no old segments removed")
	}
	for _, name := range walSegments(t, dir) {
		if _, g, _ := parseSegmentName(name); g < gen {
			t.Fatalf("pre-rotation segment %s survived removal", name)
		}
	}

	// Only post-rotation records remain for the next replay.
	l.Close()
	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	got := map[string]bool{}
	for _, r := range recs {
		got[string(r.Payload)] = true
	}
	if len(recs) != 2 || !got["new-1"] || !got["new-2"] {
		t.Fatalf("replay after compaction = %v; want new-1,new-2", got)
	}
}

// checkpoint folds l into the given state records behind a fence nobody
// else holds.
func checkpoint(t *testing.T, l *Log, state ...string) bool {
	t.Helper()
	wrote, err := l.Checkpoint(new(sync.Mutex), func(emit func([]byte) error) error {
		for _, s := range state {
			if err := emit([]byte(s)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return wrote
}

func payloads(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r.Payload)
	}
	return out
}

func TestCheckpointReplaysBeforeTheLogAboveIt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	appendAll(t, l, "a", "b", "c")
	if !checkpoint(t, l, "state-2", "state-1") {
		t.Fatal("checkpoint of a written log reported nothing to do")
	}
	for _, name := range walSegments(t, dir) {
		if _, g, _ := parseSegmentName(name); g < l.gen {
			t.Fatalf("superseded segment %s survived the checkpoint", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint left behind: %v", err)
	}
	lsns := appendAll(t, l, "d", "e")
	l.Close()

	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	// The checkpoint's records come back as written (not sorted), then the
	// log's in LSN order; a, b and c exist only inside the checkpoint.
	if got, want := fmt.Sprint(payloads(recs)), "[state-2 state-1 d e]"; got != want {
		t.Fatalf("replay = %s; want %s", got, want)
	}
	if recs[2].LSN != lsns[0] || recs[3].LSN != lsns[1] || l2.lsn.Load() != lsns[1] {
		t.Fatalf("log LSNs = %d, %d (last %d); want %v", recs[2].LSN, recs[3].LSN, l2.lsn.Load(), lsns)
	}
}

// TestIdleCheckpointIsNoOp: nothing appended since the last checkpoint
// means no rotation and no rewrite, also when that checkpoint was written
// before a restart.
func TestIdleCheckpointIsNoOp(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	if checkpoint(t, l, "never-written") {
		t.Fatal("checkpoint of a never-written log wrote something")
	}
	appendAll(t, l, "a")
	checkpoint(t, l, "state")
	before, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	rotations := l.Stats().Rotations
	if checkpoint(t, l, "must-not-be-asked-for") {
		t.Fatal("idle checkpoint reported work")
	}
	after, _ := os.ReadFile(filepath.Join(dir, checkpointName))
	if !bytes.Equal(before, after) || l.Stats().Rotations != rotations {
		t.Fatalf("idle checkpoint rewrote the file or rotated (rotations %d → %d)", rotations, l.Stats().Rotations)
	}
	l.Close()

	l2, _ := mustOpen(t, dir, Options{})
	defer l2.Close()
	if checkpoint(t, l2, "must-not-be-asked-for") {
		t.Fatal("checkpoint right after reopening a compacted log rewrote it")
	}
	// With no checkpoint to delete them, the generations idle runs leave
	// behind must not pile up: Open drops segments holding no record.
	if segs := walSegments(t, dir); len(segs) != 1 {
		t.Fatalf("segments after an idle restart = %v; want only the live one", segs)
	}
}

// TestLSNStaysAboveCutOfEmptiedLog: a checkpoint that leaves no log
// record behind must still keep LSNs from repeating after a reopen.
func TestLSNStaysAboveCutOfEmptiedLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	lsns := appendAll(t, l, "a", "b", "c")
	checkpoint(t, l, "state")
	l.Close()

	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "state" {
		t.Fatalf("replay = %v; want only the checkpoint record", payloads(recs))
	}
	cut := lsns[len(lsns)-1]
	if l2.lsn.Load() != cut {
		t.Fatalf("last LSN after reopening an emptied log = %d; want the cut %d", l2.lsn.Load(), cut)
	}
	if lsn, err := l2.Append([]byte("x")); err != nil || lsn != cut+1 {
		t.Fatalf("next append = %d, %v; want %d", lsn, err, cut+1)
	}
}

// TestDamagedCheckpointFailsOpen: unlike a log tail, a checkpoint that is
// short, fails a checksum or lacks its terminal frame is fatal — the
// segments it replaced are gone, so truncating it would silently drop
// committed state.
func TestDamagedCheckpointFailsOpen(t *testing.T) {
	ref := t.TempDir()
	l, _ := mustOpen(t, ref, Options{})
	appendAll(t, l, "a", "b")
	checkpoint(t, l, "state-one", "state-two", "state-three")
	l.Close()
	full, err := os.ReadFile(filepath.Join(ref, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	mustFail := func(what string, image []byte) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), image, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir, Options{})
		if err == nil {
			l.Close()
			t.Fatalf("%s: Open succeeded with records %v", what, payloads(recs))
		}
		after, rerr := os.ReadFile(filepath.Join(dir, checkpointName))
		if rerr != nil || !bytes.Equal(after, image) {
			t.Fatalf("%s: failed open touched the checkpoint (%v)", what, rerr)
		}
	}
	// Every proper prefix, frame boundaries (terminal frame missing) included.
	for cut := 0; cut < len(full); cut++ {
		mustFail(fmt.Sprintf("truncated to %d/%d", cut, len(full)), full[:cut])
	}
	for pos := range full {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x10
		mustFail(fmt.Sprintf("byte %d flipped", pos), mut)
	}
	// A terminal frame that miscounts is as bad as none.
	short := append([]byte(magic), full[headerSize+recHeaderSize+len("state-one"):]...)
	mustFail("one record cut out", short)
}

func TestOpenRefusesPreCheckpointDirectory(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, legacySnapshotName)
	if err := os.WriteFile(old, []byte("gzip+gob of a whole store"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{})
	if err == nil {
		l.Close()
		t.Fatal("Open started empty on a directory holding snapshot.gz")
	}
	if !strings.Contains(err.Error(), old) {
		t.Fatalf("error %q does not name %s", err, old)
	}
	if _, err := os.Stat(old); err != nil {
		t.Fatalf("refused open removed the evidence: %v", err)
	}
	if segs := walSegments(t, dir); len(segs) != 0 {
		t.Fatalf("refused open left segments %v", segs)
	}
}

// TestOpenFinishesInterruptedCheckpoint covers the two things a crash
// inside Checkpoint leaves for the next Open: a temp file (died before
// the rename) and superseded segments (died after it).
func TestOpenFinishesInterruptedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	appendAll(t, l, "a")
	checkpoint(t, l, "state")
	l.Close()
	stale := filepath.Join(dir, segmentName(0, 1))
	ghost := appendFrame([]byte(magic), 1, []byte("a"))
	if err := os.WriteFile(stale, ghost, 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, checkpointName+".tmp")
	if err := os.WriteFile(tmp, []byte(magic), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if got := fmt.Sprint(payloads(recs)); got != "[state]" {
		t.Fatalf("replay = %s; want [state] (the superseded record must not come back)", got)
	}
	for _, path := range []string{stale, tmp} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s survived the open: %v", path, err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff}
	for s, want := range cases {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Fatalf("Policy(%v).String() = %q; want %q", got, got.String(), s)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestSyncIntervalEventuallySyncs(t *testing.T) {
	dir := t.TempDir()
	fs := fsx.NewFaultFS(fsx.FaultPlan{DropUnsynced: true})
	l, _ := mustOpen(t, dir, Options{Policy: SyncInterval, FS: fs})
	appendAll(t, l, "interval-synced")
	deadline := time.Now().Add(2 * time.Second)
	for l.Stats().Syncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background syncer never ran")
		}
		time.Sleep(time.Millisecond)
	}
	// Simulated power cut: the background fsync already made the record
	// durable, so a crash loses nothing.
	fs.Crash()
	l.Abort()
	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 1 || string(recs[0].Payload) != "interval-synced" {
		t.Fatalf("replay = %v; want the interval-synced record", recs)
	}
}

func TestCleanCloseIsDurableUnderSyncOff(t *testing.T) {
	dir := t.TempDir()
	fs := fsx.NewFaultFS(fsx.FaultPlan{DropUnsynced: true})
	l, _ := mustOpen(t, dir, Options{Policy: SyncOff, FS: fs})
	appendAll(t, l, "flushed-at-close")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	l2, recs := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(recs) != 1 {
		t.Fatalf("replay after clean close = %d records; want 1", len(recs))
	}
}

func TestAppendAfterCrashFails(t *testing.T) {
	dir := t.TempDir()
	fs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: 1 << 20})
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways, FS: fs})
	defer l.Abort()
	fs.Crash()
	if _, err := l.Append([]byte("x")); !errors.Is(err, fsx.ErrInjectedCrash) {
		t.Fatalf("append on crashed fs: %v; want ErrInjectedCrash", err)
	}
}

func TestStatsCountAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Policy: SyncAlways})
	defer l.Close()
	appendAll(t, l, "aa", "bbbb")
	st := l.Stats()
	if st.Appends != 2 {
		t.Fatalf("Appends = %d; want 2", st.Appends)
	}
	wantBytes := int64(2*recHeaderSize + 6)
	if st.AppendedBytes != wantBytes {
		t.Fatalf("AppendedBytes = %d; want %d", st.AppendedBytes, wantBytes)
	}
	if st.Syncs < 2 {
		t.Fatalf("Syncs = %d; want ≥2 under SyncAlways", st.Syncs)
	}
}

func BenchmarkAppend(b *testing.B) {
	for _, pol := range []Policy{SyncOff, SyncInterval} {
		b.Run(pol.String(), func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(dir, Options{Policy: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			payload := bytes.Repeat([]byte("x"), 256)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
