package fsx

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
)

// File is the slice of *os.File behaviour durable writers need: append
// bytes, force them to stable storage, close. *os.File implements it
// directly; the fault-injection layer returns wrappers that miscount,
// short-write, or refuse.
type File interface {
	io.Writer
	Chmod(mode os.FileMode) error
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind every durable artifact
// (WAL segments and checkpoints). Production code uses OS, the
// passthrough; crash-injection tests substitute a FaultFS so a "power
// cut" can land at any byte of any write. Write paths obtained through OpenFile carry the
// same discipline as raw *os.File: nothing is durable until Sync (and,
// for renames/removals, until SyncDir on the parent directory).
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	ReadDir(name string) ([]iofs.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making renames and removals within it
	// durable. Multi-file commit protocols (checkpoint rename followed by
	// WAL segment removal) need it between the two steps.
	SyncDir(name string) error
}

// OS is the passthrough FS backed by the real filesystem.
type OS struct{}

func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	//lint:ignore fsyncrename FS is the injection seam under WriteAtomicFS and wal; callers own the sync discipline.
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) ReadDir(name string) ([]iofs.DirEntry, error) { return os.ReadDir(name) }

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("fsx: sync dir %s: %w", name, err)
	}
	return cerr
}
