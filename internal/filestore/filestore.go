// Package filestore is fairDMS's stand-in for reading training tensors
// straight from an NFS mount (paper §III-D): each sample is one raw-codec
// file on disk, read back with no per-element deserialization. It supplies
// the "NFS" series in the Figs. 6–8 storage comparison.
package filestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"fairdms/internal/codec"
	"fairdms/internal/fsx"
)

const fileExt = ".smp"

// Store is a directory of raw-encoded sample files. Reads are lock-free;
// appends serialize on a mutex only to assign the next file number.
type Store struct {
	dir string

	mu sync.Mutex
	n  int
}

// Create initializes an empty store at dir, creating the directory.
func Create(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filestore: create %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Open attaches to an existing store directory, counting its samples.
func Open(dir string) (*Store, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("filestore: open %s: %w", dir, err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), fileExt) {
			n++
		}
	}
	// Verify the numbering is dense 0..n-1 so Get(i) is well-defined.
	names := make([]string, 0, n)
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), fileExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for i, name := range names {
		if name != sampleName(i) {
			return nil, fmt.Errorf("filestore: %s: unexpected file %q at position %d", dir, name, i)
		}
	}
	return &Store{dir: dir, n: n}, nil
}

func sampleName(i int) string { return fmt.Sprintf("sample-%08d%s", i, fileExt) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of stored samples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Append writes a sample as the next file and returns its index.
func (s *Store) Append(sample *codec.Sample) (int, error) {
	data, err := codec.Raw{}.Encode(sample)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	idx := s.n
	s.n++
	s.mu.Unlock()

	path := filepath.Join(s.dir, sampleName(idx))
	if err := fsx.WriteFileAtomic(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("filestore: write %s: %w", path, err)
	}
	return idx, nil
}

// Get reads sample i. Concurrent Gets are safe and parallel.
func (s *Store) Get(i int) (*codec.Sample, error) {
	if i < 0 || i >= s.Len() {
		return nil, fmt.Errorf("filestore: index %d out of range [0, %d)", i, s.Len())
	}
	path := filepath.Join(s.dir, sampleName(i))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("filestore: read %s: %w", path, err)
	}
	smp, err := (codec.Raw{}).Decode(data)
	if err != nil {
		return nil, fmt.Errorf("filestore: decode %s: %w", path, err)
	}
	return smp, nil
}
