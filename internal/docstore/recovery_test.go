package docstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fairdms/internal/fsx"
	"fairdms/internal/wal"
)

// crashTxn applies the i-th workload transaction to c. Every txn touches
// two documents plus (past the first) an update of the previous txn's
// doc, so a partially applied txn is detectable from the recovered state.
func crashTxn(c *Collection, i int) error {
	txn := []TxnOp{
		{Kind: TxnAdd, ID: fmt.Sprintf("t%02d-a", i), F: Fields{"n": i}},
		{Kind: TxnAdd, ID: fmt.Sprintf("t%02d-b", i), F: Fields{"n": i}},
	}
	if i > 0 {
		txn = append(txn, TxnOp{Kind: TxnUpdate, ID: fmt.Sprintf("t%02d-a", i-1), F: Fields{"bumped": i}})
	}
	_, err := c.ApplyTxn(txn)
	return err
}

// crashModel returns the expected document state after the first k
// workload transactions.
func crashModel(k int) map[string]Fields {
	m := make(map[string]Fields)
	for i := 0; i < k; i++ {
		m[fmt.Sprintf("t%02d-a", i)] = Fields{"n": int64(i)}
		m[fmt.Sprintf("t%02d-b", i)] = Fields{"n": int64(i)}
		if i > 0 {
			m[fmt.Sprintf("t%02d-a", i-1)]["bumped"] = int64(i)
		}
	}
	return m
}

// matchesModel reports whether c holds exactly the documents of model.
func matchesModel(c *Collection, model map[string]Fields) error {
	if c.Count() != len(model) {
		return fmt.Errorf("count = %d; model has %d", c.Count(), len(model))
	}
	for id, want := range model {
		d, err := c.Get(id)
		if err != nil {
			return fmt.Errorf("doc %s missing: %w", id, err)
		}
		if len(d.F) != len(want) {
			return fmt.Errorf("doc %s = %v; want %v", id, d.F, want)
		}
		for k, v := range want {
			if d.F[k] != v {
				return fmt.Errorf("doc %s field %s = %v; want %v", id, k, d.F[k], v)
			}
		}
	}
	return nil
}

// workloadBytes measures how many bytes the crash workload writes through
// the filesystem, so the sweep can place a crash at every offset.
func workloadBytes(t *testing.T, txns int) int64 {
	t.Helper()
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	for i := 0; i < txns; i++ {
		if err := crashTxn(ds.Collection("peaks"), i); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()
	return dirBytes(t, dir)
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestCrashSweepCommittedSurviveUncommittedVanish is the core recovery
// guarantee: with fsync=always, for a crash injected at EVERY byte offset
// of the workload, every transaction that returned success is intact
// after reopen and no partial transaction ever applies. Both post-crash
// disk models are swept: process kill (torn tail survives) and power cut
// (unsynced bytes vanish).
func TestCrashSweepCommittedSurviveUncommittedVanish(t *testing.T) {
	const txns = 4
	total := workloadBytes(t, txns)
	step := int64(1)
	if testing.Short() {
		step = 17
	}
	for _, dropUnsynced := range []bool{false, true} {
		name := "process-kill"
		if dropUnsynced {
			name = "power-cut"
		}
		t.Run(name, func(t *testing.T) {
			for cut := int64(1); cut <= total; cut += step {
				dir := t.TempDir()
				ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: dropUnsynced})
				ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways, FS: ffs})
				committed := 0
				if err == nil {
					for i := 0; i < txns; i++ {
						if err := crashTxn(ds.Collection("peaks"), i); err != nil {
							break
						}
						committed++
					}
					ds.Abort()
				} else if !errors.Is(err, fsx.ErrInjectedCrash) {
					t.Fatalf("cut %d: open failed with non-injected error: %v", cut, err)
				}
				if !ffs.Crashed() && committed < txns {
					t.Fatalf("cut %d: workload stopped early without a crash", cut)
				}

				// Recover on the real filesystem, as a restarted process would.
				rec, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways})
				if err != nil {
					t.Fatalf("cut %d: recovery open failed: %v", cut, err)
				}
				c := rec.Collection("peaks")
				// Committed txns must survive; the in-flight txn may have
				// fully reached disk before the crash (committed+1) under
				// the process-kill model, but under a power cut it was
				// never fsynced and must vanish.
				allowed := []int{committed}
				if !dropUnsynced && committed < txns {
					allowed = append(allowed, committed+1)
				}
				var match error
				for _, k := range allowed {
					if match = matchesModel(c, crashModel(k)); match == nil {
						break
					}
				}
				if match != nil {
					t.Fatalf("cut %d (%s, %d committed): recovered state matches no allowed prefix: %v",
						cut, name, committed, match)
				}
				rec.Close()
			}
		})
	}
}

// TestCrashSweepSyncOffStillPrefixConsistent: with fsync=off a power cut
// may lose committed transactions, but recovery must still land on a
// whole-transaction prefix — never a partial txn.
func TestCrashSweepSyncOffStillPrefixConsistent(t *testing.T) {
	const txns = 4
	total := workloadBytes(t, txns)
	step := int64(3)
	if testing.Short() {
		step = 29
	}
	for cut := int64(1); cut <= total; cut += step {
		dir := t.TempDir()
		ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: true})
		ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncOff, FS: ffs})
		committed := 0
		if err == nil {
			for i := 0; i < txns; i++ {
				if err := crashTxn(ds.Collection("peaks"), i); err != nil {
					break
				}
				committed++
			}
			ds.Abort()
		}

		rec, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncOff})
		if err != nil {
			t.Fatalf("cut %d: recovery open failed: %v", cut, err)
		}
		c := rec.Collection("peaks")
		var match error
		for k := 0; k <= committed+1 && k <= txns; k++ {
			if match = matchesModel(c, crashModel(k)); match == nil {
				break
			}
		}
		if match != nil {
			t.Fatalf("cut %d: recovered state is not a whole-txn prefix (last mismatch: %v)", cut, match)
		}
		rec.Close()
	}
}

// TestCrashSweepPolicyFromEnv re-runs a coarse power-cut sweep under the
// fsync policy named by FAIRDMS_FSYNC — the CI recovery job's matrix
// axis; without the variable it covers all three policies. fsync=always
// must recover exactly the committed prefix; interval and off may lose a
// suffix of committed transactions but must still land on a whole-txn
// boundary.
func TestCrashSweepPolicyFromEnv(t *testing.T) {
	policies := []string{"always", "interval", "off"}
	if env := os.Getenv("FAIRDMS_FSYNC"); env != "" {
		policies = []string{env}
	}
	const txns = 4
	total := workloadBytes(t, txns)
	for _, name := range policies {
		t.Run(name, func(t *testing.T) {
			policy, err := wal.ParsePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			for cut := int64(1); cut <= total; cut += 13 {
				dir := t.TempDir()
				ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: true})
				ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: policy, FS: ffs})
				committed := 0
				if err == nil {
					for i := 0; i < txns; i++ {
						if err := crashTxn(ds.Collection("peaks"), i); err != nil {
							break
						}
						committed++
					}
					ds.Abort()
				}

				rec, err := OpenDurable(DurableOptions{Dir: dir})
				if err != nil {
					t.Fatalf("cut %d: recovery open failed: %v", cut, err)
				}
				c := rec.Collection("peaks")
				lo := 0
				if policy == wal.SyncAlways {
					// A power cut drops every unsynced byte, and under
					// fsync=always the in-flight frame is never synced, so
					// recovery lands on exactly the committed prefix.
					lo = committed
				}
				var match error
				for k := lo; k <= committed+1 && k <= txns; k++ {
					if match = matchesModel(c, crashModel(k)); match == nil {
						break
					}
					if policy == wal.SyncAlways {
						break // exact match required
					}
				}
				if match != nil {
					t.Fatalf("cut %d (%s, %d committed): recovered state is not an allowed prefix: %v",
						cut, name, committed, match)
				}
				rec.Close()
			}
		})
	}
}

// TestCrashMultiShardTxnsStayAtomic: two-document transactions, with the
// power cut at byte offsets spread over six commits, must recover
// transaction-atomically — for every txn, either both of its documents
// are present or neither is. (The name is from when the log striped its
// records over several segment files; it now writes one per generation.)
func TestCrashMultiShardTxnsStayAtomic(t *testing.T) {
	const txns = 6
	for _, cut := range []int64{64, 200, 400, 700, 1000, 1500, 2200} {
		dir := t.TempDir()
		ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: true})
		ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways, FS: ffs})
		if err != nil {
			continue // crashed inside Open; nothing to assert
		}
		c := ds.Collection("peaks")
		committed := 0
		for i := 0; i < txns; i++ {
			if _, err := c.ApplyTxn([]TxnOp{
				{Kind: TxnAdd, ID: fmt.Sprintf("t%02d-a", i), F: Fields{"n": i}},
				{Kind: TxnAdd, ID: fmt.Sprintf("t%02d-b", i), F: Fields{"n": i}},
			}); err != nil {
				break
			}
			committed++
		}
		ds.Abort()

		rec, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatalf("cut %d: recovery open failed: %v", cut, err)
		}
		rc := rec.Collection("peaks")
		for i := 0; i < txns; i++ {
			_, errA := rc.Get(fmt.Sprintf("t%02d-a", i))
			_, errB := rc.Get(fmt.Sprintf("t%02d-b", i))
			if (errA == nil) != (errB == nil) {
				t.Fatalf("cut %d: txn %d recovered partially (a=%v b=%v)", cut, i, errA, errB)
			}
			if i < committed && errA != nil {
				t.Fatalf("cut %d: committed txn %d lost under fsync=always", cut, i)
			}
		}
		rec.Close()
	}
}

// TestTornWriteMatrixAtStoreLevel truncates the WAL's final commit record
// at every byte offset, and separately flips every byte in it, asserting
// recovery stops at the last valid commit and counts the damage.
func TestTornWriteMatrixAtStoreLevel(t *testing.T) {
	const txns = 3
	build := func(t *testing.T) string {
		dir := t.TempDir()
		ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
		for i := 0; i < txns; i++ {
			if err := crashTxn(ds.Collection("peaks"), i); err != nil {
				t.Fatal(err)
			}
		}
		ds.Close()
		return dir
	}
	segPath := func(t *testing.T, dir string) string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".log" {
				return filepath.Join(dir, e.Name())
			}
		}
		t.Fatal("no WAL segment found")
		return ""
	}

	ref := build(t)
	full, err := os.ReadFile(segPath(t, ref))
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final record's start by replaying sizes: record i's frame
	// is 16 bytes of header plus the length field's payload.
	offsets := []int{8} // segment header
	for off := 8; off < len(full); {
		payloadLen := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += 16 + payloadLen
		offsets = append(offsets, off)
	}
	lastStart := offsets[len(offsets)-2]

	t.Run("truncate", func(t *testing.T) {
		for cut := lastStart; cut < len(full); cut++ {
			dir := build(t)
			if err := os.WriteFile(segPath(t, dir), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenDurable(DurableOptions{Dir: dir})
			if err != nil {
				t.Fatalf("cut %d: open: %v", cut, err)
			}
			if err := matchesModel(rec.Collection("peaks"), crashModel(txns-1)); err != nil {
				t.Fatalf("cut %d: recovery did not stop at the last valid commit: %v", cut, err)
			}
			st := rec.WalStats()
			if cut > lastStart && st.TornTruncations == 0 {
				t.Fatalf("cut %d: torn tail not counted in wal stats", cut)
			}
			rec.Close()
		}
	})

	t.Run("bitflip", func(t *testing.T) {
		for pos := lastStart; pos < len(full); pos += 3 {
			dir := build(t)
			mut := append([]byte(nil), full...)
			mut[pos] ^= 0x01
			if err := os.WriteFile(segPath(t, dir), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			rec, err := OpenDurable(DurableOptions{Dir: dir})
			if err != nil {
				t.Fatalf("flip at %d: open: %v", pos, err)
			}
			if err := matchesModel(rec.Collection("peaks"), crashModel(txns-1)); err != nil {
				t.Fatalf("flip at %d: recovery did not stop at the last valid commit: %v", pos, err)
			}
			st := rec.WalStats()
			if st.TornTruncations+st.CorruptRecords == 0 {
				t.Fatalf("flip at %d: damage not counted (stats %+v)", pos, st)
			}
			rec.Close()
		}
	})
}

// stepCrashFS crashes the FaultFS under it just before the n-th of the
// steps a compaction takes that write no bytes — the checkpoint's rename,
// the directory fsync, each segment removal — which a byte budget cannot
// aim at.
type stepCrashFS struct {
	*fsx.FaultFS
	left int // steps still allowed; negative: not armed
}

func (s *stepCrashFS) step() {
	if s.left == 0 {
		s.Crash()
	}
	if s.left >= 0 {
		s.left--
	}
}

func (s *stepCrashFS) Rename(oldpath, newpath string) error {
	s.step()
	return s.FaultFS.Rename(oldpath, newpath)
}

func (s *stepCrashFS) SyncDir(name string) error {
	s.step()
	return s.FaultFS.SyncDir(name)
}

func (s *stepCrashFS) Remove(name string) error {
	s.step()
	return s.FaultFS.Remove(name)
}

// TestCrashDuringCompactionKeepsData: a crash at any point inside Compact
// must never lose an acknowledged document — either the old checkpoint
// plus the log or the new checkpoint recovers them all. The workload
// compacts twice, so the second compaction replaces a checkpoint that is
// in use; a power cut is placed at every byte written from the first
// compaction on, and then before every byte-less step of the second.
func TestCrashDuringCompactionKeepsData(t *testing.T) {
	rounds := []int{2, 1} // inserts before the first and the second compaction
	const total = 3
	// workload runs insert, compact, insert, compact against fsys and
	// returns how many inserts were acknowledged. arm runs just before the
	// second compaction.
	workload := func(dir string, fsys fsx.FS, arm func()) (acked int) {
		ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways, FS: fsys})
		if err != nil {
			return 0
		}
		defer ds.Abort()
		for round, inserts := range rounds {
			for i := 0; i < inserts; i++ {
				if _, err := insertDoc(ds.Collection("peaks"), fmt.Sprintf("d%02d", acked), Fields{"n": acked}); err != nil {
					return acked
				}
				acked++
			}
			if round == 1 {
				arm()
			}
			if ds.Compact() != nil { // may fail mid-way from the injected crash; that's the point
				return acked
			}
		}
		return acked
	}
	// recovered reopens dir as a restarted process would and checks every
	// acknowledged document is back, nothing was invented, and the debris
	// of the crashed compaction is gone.
	recovered := func(t *testing.T, what, dir string, acked int) {
		t.Helper()
		rec, err := OpenDurable(DurableOptions{Dir: dir})
		if err != nil {
			t.Fatalf("%s: recovery after crashed compaction failed: %v", what, err)
		}
		defer rec.Close()
		c := rec.Collection("peaks")
		for i := 0; i < acked; i++ {
			if d, err := c.Get(fmt.Sprintf("d%02d", i)); err != nil || d.F["n"] != int64(i) {
				t.Fatalf("%s: acknowledged doc d%02d lost across a crashed compaction (%v, %v)", what, i, d, err)
			}
		}
		if n := c.Count(); n > acked+1 {
			t.Fatalf("%s: recovered %d docs from %d acknowledged inserts", what, n, acked)
		}
		if _, err := os.Stat(checkpointFile(dir) + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%s: temp checkpoint survived the recovery: %v", what, err)
		}
	}

	// Everything before the first compaction is the plain crash sweeps'
	// ground; start where it starts.
	probeDir := t.TempDir()
	probe := openDurable(t, probeDir, DurableOptions{Policy: wal.SyncAlways})
	for i := 0; i < rounds[0]; i++ {
		if _, err := insertDoc(probe.Collection("peaks"), fmt.Sprintf("d%02d", i), Fields{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	probe.Abort()
	preCompact := dirBytes(t, probeDir)

	step := int64(1)
	if testing.Short() {
		step = 23
	}
	t.Run("every-byte", func(t *testing.T) {
		for cut := preCompact + 1; ; cut += step {
			dir := t.TempDir()
			ffs := fsx.NewFaultFS(fsx.FaultPlan{CrashAfterBytes: cut, DropUnsynced: true})
			acked := workload(dir, ffs, func() {})
			if !ffs.Crashed() {
				if acked != total {
					t.Fatalf("cut %d: workload stopped at %d inserts without a crash", cut, acked)
				}
				break // the budget outlasted the workload: every byte is swept
			}
			recovered(t, fmt.Sprintf("cut %d", cut), dir, acked)
		}
	})
	t.Run("every-step", func(t *testing.T) {
		for n := 0; ; n++ {
			dir := t.TempDir()
			sfs := &stepCrashFS{FaultFS: fsx.NewFaultFS(fsx.FaultPlan{DropUnsynced: true}), left: -1}
			acked := workload(dir, sfs, func() { sfs.left = n })
			if !sfs.Crashed() {
				if n < 3 {
					t.Fatalf("compaction took %d byte-less steps; want at least rename, sync-dir and one removal", n)
				}
				break
			}
			if acked != total {
				t.Fatalf("step %d: only %d inserts acknowledged before the second compaction", n, acked)
			}
			recovered(t, fmt.Sprintf("step %d", n), dir, acked)
			// The recovery itself compacted nothing; make sure the directory
			// it left still compacts and reopens.
			again := openDurable(t, dir, DurableOptions{})
			if _, err := insertDoc(again.Collection("peaks"), "after", Fields{"n": -1}); err != nil {
				t.Fatal(err)
			}
			compactAndCrash(t, again)
			recovered(t, fmt.Sprintf("step %d, compacted again", n), dir, acked)
		}
	})
}
