package filestore

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fairdms/internal/codec"
)

func sample(v float64) *codec.Sample {
	return codec.SampleFromFloats([]float64{v, v + 1}, []int{2}, codec.F64, []float64{v})
}

func TestAppendGetRoundTrip(t *testing.T) {
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		idx, err := s.Append(sample(float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("Append returned index %d, want %d", idx, i)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := s.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Floats()[0] != 3 || got.Label[0] != 3 {
		t.Fatalf("sample 3 = %v label %v", got.Floats(), got.Label)
	}
}

func TestOpenExistingStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, smp := range []*codec.Sample{sample(1), sample(2)} {
		if _, err := s.Append(smp); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d", s2.Len())
	}
	got, err := s2.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Floats()[0] != 2 {
		t.Fatalf("sample 1 = %v", got.Floats())
	}
	// Appending after reopen continues the numbering.
	idx, err := s2.Append(sample(3))
	if err != nil || idx != 2 {
		t.Fatalf("append after reopen: idx=%d err=%v", idx, err)
	}
}

func TestOpenRejectsGappyDirectory(t *testing.T) {
	dir := t.TempDir()
	// A file with the wrong number breaks the dense-index invariant.
	if err := os.WriteFile(filepath.Join(dir, "sample-00000005.smp"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("expected error for non-dense sample numbering")
	}
}

func TestOpenMissingDirectory(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestGetOutOfRange(t *testing.T) {
	s, _ := Create(t.TempDir())
	if _, err := s.Get(0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := s.Get(-1); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestConcurrentAppendsAndReads(t *testing.T) {
	s, _ := Create(t.TempDir())
	// Seed a few samples so readers have something.
	for i := 0; i < 4; i++ {
		s.Append(sample(float64(i)))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Append(sample(9)); err != nil {
					errs <- err
					return
				}
				if _, err := s.Get(i % 4); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Len() != 44 {
		t.Fatalf("Len = %d, want 44", s.Len())
	}
}

func TestPayloadPreservedExactly(t *testing.T) {
	s, _ := Create(t.TempDir())
	orig := codec.SampleFromFloats([]float64{1, 2, 3, 4}, []int{2, 2}, codec.U16, []float64{0.5, 0.25})
	if _, err := s.Append(orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, orig.Data) {
		t.Fatal("payload bytes altered by round trip")
	}
	if got.Dtype != codec.U16 || len(got.Shape) != 2 {
		t.Fatalf("metadata altered: %+v", got)
	}
}
