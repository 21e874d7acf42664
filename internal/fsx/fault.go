package fsx

import (
	"errors"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
)

// ErrInjectedCrash is returned by every FaultFS operation after the
// simulated machine has crashed (budget exhausted or Crash called).
var ErrInjectedCrash = errors.New("fsx: injected crash")

// ErrInjectedWriteFailure is returned by writes when FaultPlan.FailWrites
// is set — a disk-full / EIO stand-in that leaves the machine up.
var ErrInjectedWriteFailure = errors.New("fsx: injected write failure")

// FaultPlan configures a FaultFS.
//
// CrashAfterBytes, when positive, is a byte budget across all writes
// through the FS: the write that crosses it is cut short exactly at the
// boundary (a torn write) and every subsequent operation fails with
// ErrInjectedCrash. Sweeping the budget over [1, total bytes written]
// simulates a power cut at every point of a workload.
//
// DropUnsynced selects the post-crash disk model. When false the crash is
// a process kill: everything the kernel accepted — synced or not — is
// still on disk, including the torn tail. When true it is a power cut:
// at crash time every tracked file is truncated back to its last synced
// size, so only fsynced bytes survive.
//
// NoopSync makes Sync succeed without making anything durable (an
// unfaithful disk); combined with DropUnsynced=true it models a drive
// that lies about flushes. FailWrites makes every write fail with
// ErrInjectedWriteFailure without crashing the machine.
type FaultPlan struct {
	CrashAfterBytes int64
	DropUnsynced    bool
	NoopSync        bool
	FailWrites      bool
}

// FaultFS is an FS that injects write faults and crashes over the real
// filesystem. It tracks the synced size of every file written through it
// so a crash can discard unsynced bytes. Safe for concurrent use.
type FaultFS struct {
	plan FaultPlan

	mu      sync.Mutex
	crashed bool                   // guarded by mu
	budget  int64                  // guarded by mu; remaining bytes before crash
	files   map[string]*faultEntry // guarded by mu; cleaned path → state
}

// faultEntry tracks one path's durability state across opens.
type faultEntry struct {
	size   int64 // current on-disk size as written through the FaultFS
	synced int64 // bytes guaranteed to survive a DropUnsynced crash
}

// NewFaultFS builds a fault-injecting FS over the real filesystem.
func NewFaultFS(plan FaultPlan) *FaultFS {
	return &FaultFS{plan: plan, budget: plan.CrashAfterBytes, files: make(map[string]*faultEntry)}
}

// Crash simulates the machine dying now: every subsequent operation fails
// with ErrInjectedCrash, and with DropUnsynced set all unsynced bytes are
// truncated away. Idempotent.
func (f *FaultFS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

// FailWrites switches the plan's write fault on or off while the FS is in
// use — a disk that fills up, and is then given room again.
func (f *FaultFS) FailWrites(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan.FailWrites = on
}

// Crashed reports whether the simulated machine has crashed.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// lint:holds f.mu
func (f *FaultFS) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	if !f.plan.DropUnsynced {
		return
	}
	for path, e := range f.files {
		if e.synced < e.size {
			// Post-crash truncation uses the real filesystem directly:
			// the FaultFS itself is already "dead".
			os.Truncate(path, e.synced)
			e.size = e.synced
		}
	}
}

// lint:holds f.mu
func (f *FaultFS) entryLocked(path string, size int64, preexisting bool) *faultEntry {
	e, ok := f.files[path]
	if !ok {
		e = &faultEntry{size: size}
		if preexisting {
			// Files that existed before the FaultFS saw them (seeded
			// fixtures, prior generations) count as fully durable.
			e.synced = size
		}
		f.files[path] = e
	}
	return e
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	path := filepath.Clean(name)
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrInjectedCrash
	}
	f.mu.Unlock()
	st, serr := os.Stat(path)
	//lint:ignore fsyncrename fault-injection seam; durability is the caller's contract, enforced by the tests using this FS.
	file, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		file.Close()
		return nil, ErrInjectedCrash
	}
	var size int64
	preexisting := serr == nil
	if preexisting && flag&os.O_TRUNC == 0 {
		size = st.Size()
	}
	e := f.entryLocked(path, size, preexisting)
	if flag&os.O_TRUNC != 0 {
		e.size = 0
		if e.synced > 0 {
			e.synced = 0
		}
	}
	off := int64(0)
	if flag&os.O_APPEND != 0 {
		off = e.size
	}
	return &faultFile{fs: f, f: file, path: path, entry: e, off: off}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrInjectedCrash
	}
	return os.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjectedCrash
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	op, np := filepath.Clean(oldpath), filepath.Clean(newpath)
	if e, ok := f.files[op]; ok {
		delete(f.files, op)
		f.files[np] = e
	} else {
		delete(f.files, np)
	}
	return nil
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjectedCrash
	}
	if err := os.Remove(name); err != nil {
		return err
	}
	delete(f.files, filepath.Clean(name))
	return nil
}

func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjectedCrash
	}
	if err := os.Truncate(name, size); err != nil {
		return err
	}
	if e, ok := f.files[filepath.Clean(name)]; ok {
		if e.size > size {
			e.size = size
		}
		if e.synced > size {
			e.synced = size
		}
	}
	return nil
}

func (f *FaultFS) ReadDir(name string) ([]iofs.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrInjectedCrash
	}
	return os.ReadDir(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if f.Crashed() {
		return ErrInjectedCrash
	}
	return os.MkdirAll(path, perm)
}

func (f *FaultFS) SyncDir(name string) error {
	if f.Crashed() {
		return ErrInjectedCrash
	}
	// Directory-entry durability is not modeled (renames/removals are
	// applied immediately and survive crashes); SyncDir is a no-op here.
	return nil
}

// faultFile applies the plan to one open file. The underlying *os.File is
// real, so data lands on the actual disk; the FaultFS only decides how
// much of each write is admitted and what a crash destroys.
type faultFile struct {
	fs    *FaultFS
	f     *os.File
	path  string
	entry *faultEntry
	off   int64 // this handle's write offset within the file
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	if w.fs.crashed {
		w.fs.mu.Unlock()
		return 0, ErrInjectedCrash
	}
	if w.fs.plan.FailWrites {
		w.fs.mu.Unlock()
		return 0, ErrInjectedWriteFailure
	}
	admit := len(p)
	crash := false
	if w.fs.plan.CrashAfterBytes > 0 {
		if int64(admit) >= w.fs.budget {
			admit = int(w.fs.budget)
			crash = true
		}
		w.fs.budget -= int64(admit)
	}
	var n int
	var err error
	if admit > 0 {
		n, err = w.f.Write(p[:admit])
		w.off += int64(n)
		if w.off > w.entry.size {
			w.entry.size = w.off
		}
	}
	if crash {
		w.fs.crashLocked()
		if err == nil {
			err = ErrInjectedCrash
		}
	}
	w.fs.mu.Unlock()
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.fs.crashed {
		return ErrInjectedCrash
	}
	if w.fs.plan.NoopSync {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if w.entry.synced < w.entry.size {
		w.entry.synced = w.entry.size
	}
	return nil
}

func (w *faultFile) Chmod(mode os.FileMode) error {
	if w.fs.Crashed() {
		return ErrInjectedCrash
	}
	return w.f.Chmod(mode)
}

func (w *faultFile) Close() error {
	// Closing is allowed even post-crash so callers can release handles.
	return w.f.Close()
}
