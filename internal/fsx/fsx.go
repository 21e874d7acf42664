// Package fsx centralizes the crash-safe file-write discipline every
// durable artifact in the repo must follow: write to a temporary sibling,
// fsync, then atomically rename over the destination. PRs 1–2 introduced
// the pattern inline in the docstore's and the zoo's snapshot writers; this
// package is its single home, and the fsyncrename analyzer (cmd/fairvet)
// mechanically keeps every other os.WriteFile/os.Create out of snapshot
// paths.
//
// The guarantee: at any crash point, the destination path holds either the
// previous complete content or the new complete content — never a
// truncated or interleaved file. (Directory-entry durability after rename
// additionally needs a directory fsync, which callers doing multi-file
// commits layer on — the WAL checkpoint does, before it deletes the
// segments the renamed file replaces; single-file readers tolerate an
// absent file and do not require it.)
package fsx

import (
	"fmt"
	"io"
	"os"
)

// WriteAtomic streams content produced by write into path crash-safely:
// the payload lands in path+".tmp", is fsynced, and is renamed over path
// only after a clean close. On any failure the temp file is removed and
// the previous content of path (if any) is left untouched.
func WriteAtomic(path string, write func(io.Writer) error) error {
	return WriteAtomicFS(OS{}, path, write)
}

// WriteAtomicFS is WriteAtomic against an explicit FS, so the
// crash-injection layer can cut the write short at any byte the same way
// it cuts WAL appends.
func WriteAtomicFS(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return fmt.Errorf("fsx: create %s: %w", tmp, err)
	}
	fail := func(stage string, err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("fsx: %s %s: %w", stage, path, err)
	}
	if err := write(f); err != nil {
		return fail("write", err)
	}
	if err := f.Sync(); err != nil {
		return fail("sync", err)
	}
	if err := f.Close(); err != nil {
		return fail("close", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("fsx: rename %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic is WriteAtomic for a byte slice: the crash-safe
// replacement for os.WriteFile. perm applies to newly created files (the
// temp file inherits it before the rename).
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return WriteAtomic(path, func(w io.Writer) error {
		if f, ok := w.(File); ok {
			if err := f.Chmod(perm); err != nil {
				return err
			}
		}
		_, err := w.Write(data)
		return err
	})
}
