package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeThrough(t *testing.T, fs FS, path string, chunks ...[]byte) error {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestFaultFSBudgetTearsTheCrossingWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewFaultFS(FaultPlan{CrashAfterBytes: 5})

	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abc"))
	if n != 3 || err != nil {
		t.Fatalf("first write admitted %d, %v; want 3, nil", n, err)
	}
	// This write crosses the 5-byte budget: exactly 2 more bytes land,
	// then the machine is dead.
	n, err = f.Write([]byte("defg"))
	if n != 2 || !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crossing write admitted %d, %v; want 2, ErrInjectedCrash", n, err)
	}
	if !fs.Crashed() {
		t.Fatal("machine should be crashed")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("post-crash write: %v; want ErrInjectedCrash", err)
	}
	f.Close()

	// Process-kill model: the torn tail is on disk.
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "abcde" {
		t.Fatalf("on-disk %q, %v; want torn tail \"abcde\"", got, err)
	}
	for _, op := range []func() error{
		func() error { _, err := fs.OpenFile(path, os.O_WRONLY, 0o644); return err },
		func() error { _, err := fs.ReadFile(path); return err },
		func() error { return fs.Rename(path, path+"2") },
		func() error { return fs.MkdirAll(filepath.Join(dir, "sub"), 0o755) },
		func() error { return fs.SyncDir(dir) },
	} {
		if err := op(); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("post-crash op: %v; want ErrInjectedCrash", err)
		}
	}
}

func TestFaultFSDropUnsyncedTruncatesToSyncedSize(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewFaultFS(FaultPlan{DropUnsynced: true})

	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	f.Close()

	got, err := os.ReadFile(path)
	if err != nil || string(got) != "durable" {
		t.Fatalf("after power cut: %q, %v; want only fsynced bytes \"durable\"", got, err)
	}
}

func TestFaultFSNoopSyncLosesEverything(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	fs := NewFaultFS(FaultPlan{DropUnsynced: true, NoopSync: true})
	if err := writeThrough(t, fs, path, []byte("lying-disk")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got, err := os.ReadFile(path)
	if err != nil || len(got) != 0 {
		t.Fatalf("after crash on a lying disk: %q, %v; want empty", got, err)
	}
}

func TestFaultFSFailWrites(t *testing.T) {
	fs := NewFaultFS(FaultPlan{FailWrites: true})
	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjectedWriteFailure) {
		t.Fatalf("write: %v; want ErrInjectedWriteFailure", err)
	}
	if fs.Crashed() {
		t.Fatal("FailWrites must not crash the machine")
	}
	fs.FailWrites(false)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after the fault cleared: %v", err)
	}
}

func TestFaultFSRenameMovesDurabilityTracking(t *testing.T) {
	dir := t.TempDir()
	old, final := filepath.Join(dir, "x.tmp"), filepath.Join(dir, "x")
	fs := NewFaultFS(FaultPlan{DropUnsynced: true})
	if err := writeThrough(t, fs, old, []byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(old, final); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got, err := os.ReadFile(final)
	if err != nil || string(got) != "synced" {
		t.Fatalf("renamed file after crash: %q, %v; want \"synced\"", got, err)
	}
}

func TestFaultFSPreexistingFilesCountAsDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seed")
	if err := os.WriteFile(path, []byte("fixture"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultFS(FaultPlan{DropUnsynced: true})
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-unsynced")); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "fixture" {
		t.Fatalf("after crash: %q, %v; want the preexisting bytes intact", got, err)
	}
}

func TestWriteAtomicFSUnderFaultFS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap")
	fs := NewFaultFS(FaultPlan{})
	err := WriteAtomicFS(fs, path, func(w io.Writer) error {
		_, werr := w.Write([]byte("v1"))
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != "v1" {
		t.Fatalf("read back %q, %v; want \"v1\"", got, rerr)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
}
