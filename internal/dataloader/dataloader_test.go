package dataloader

import (
	"errors"
	"sync/atomic"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/docstore"
	"fairdms/internal/filestore"
)

// makeSamples builds n tiny labeled samples whose first element equals the
// sample index, so ordering is checkable after batching.
func makeSamples(n int) []*codec.Sample {
	out := make([]*codec.Sample, n)
	for i := range out {
		out[i] = codec.SampleFromFloats(
			[]float64{float64(i), 1, 2, 3},
			[]int{4}, codec.F64,
			[]float64{float64(i) * 10},
		)
	}
	return out
}

func TestSequentialEpochCoversDatasetInOrder(t *testing.T) {
	ds := &InMemory{Samples: makeSamples(10)}
	l, err := New(ds, Config{BatchSize: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var seen []float64
	batches := 0
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		batches++
		for i := 0; i < r.Batch.X.Dim(0); i++ {
			seen = append(seen, r.Batch.X.At(i, 0))
		}
		if r.Batch.Fetch < 0 {
			t.Fatal("negative fetch time")
		}
	}
	if batches != 4 {
		t.Fatalf("epoch delivered %d batches, want 4", batches)
	}
	if len(seen) != 10 {
		t.Fatalf("epoch visited %d samples, want 10", len(seen))
	}
	for i, v := range seen {
		if v != float64(i) {
			t.Fatalf("sequential order violated at %d: %v", i, seen)
		}
	}
}

func TestDropLast(t *testing.T) {
	ds := &InMemory{Samples: makeSamples(10)}
	l, err := New(ds, Config{BatchSize: 3, DropLast: true})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Batch.X.Dim(0) != 3 {
			t.Fatalf("batch size %d, want 3", r.Batch.X.Dim(0))
		}
		count++
	}
	if count != 3 {
		t.Fatalf("received %d batches, want 3", count)
	}
}

func TestRandomSamplerShufflesButCovers(t *testing.T) {
	n := 32
	ds := &InMemory{Samples: makeSamples(n)}
	l, err := New(ds, Config{BatchSize: 8, Workers: 3, Sampler: RandomSampler{N: n, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	inOrder := true
	prev := -1.0
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for i := 0; i < r.Batch.X.Dim(0); i++ {
			v := r.Batch.X.At(i, 0)
			if seen[v] {
				t.Fatalf("sample %v delivered twice", v)
			}
			seen[v] = true
			if v < prev {
				inOrder = false
			}
			prev = v
		}
	}
	if len(seen) != n {
		t.Fatalf("covered %d of %d samples", len(seen), n)
	}
	if inOrder {
		t.Fatal("random sampler produced identity permutation")
	}
	// Different epochs use different permutations.
	s := RandomSampler{N: n, Seed: 1}
	a, b := s.Order(0), s.Order(1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs 0 and 1 produced identical permutations")
	}
}

func TestLabelsCollated(t *testing.T) {
	ds := &InMemory{Samples: makeSamples(4)}
	l, _ := New(ds, Config{BatchSize: 4})
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Batch.Y == nil {
			t.Fatal("labels missing from batch")
		}
		for i := 0; i < 4; i++ {
			if r.Batch.Y.At(i, 0) != r.Batch.X.At(i, 0)*10 {
				t.Fatalf("label mismatch at row %d", i)
			}
		}
	}
}

func TestUnlabeledSamplesYieldNilY(t *testing.T) {
	samples := []*codec.Sample{
		codec.SampleFromFloats([]float64{1}, []int{1}, codec.F64, nil),
		codec.SampleFromFloats([]float64{2}, []int{1}, codec.F64, nil),
	}
	b, err := Collate(samples)
	if err != nil {
		t.Fatal(err)
	}
	if b.Y != nil {
		t.Fatal("Y must be nil for unlabeled samples")
	}
}

func TestCollateRejectsMixedShapes(t *testing.T) {
	samples := []*codec.Sample{
		codec.SampleFromFloats([]float64{1}, []int{1}, codec.F64, nil),
		codec.SampleFromFloats([]float64{1, 2}, []int{2}, codec.F64, nil),
	}
	if _, err := Collate(samples); err == nil {
		t.Fatal("expected error for mixed element counts")
	}
	mixedLabels := []*codec.Sample{
		codec.SampleFromFloats([]float64{1}, []int{1}, codec.F64, []float64{1}),
		codec.SampleFromFloats([]float64{2}, []int{1}, codec.F64, nil),
	}
	if _, err := Collate(mixedLabels); err == nil {
		t.Fatal("expected error for mixed label dims")
	}
}

type failingDataset struct {
	n      int
	failAt int
	calls  atomic.Int64
}

func (d *failingDataset) Len() int { return d.n }
func (d *failingDataset) Get(i int) (*codec.Sample, error) {
	d.calls.Add(1)
	if i == d.failAt {
		return nil, errors.New("injected failure")
	}
	return codec.SampleFromFloats([]float64{float64(i)}, []int{1}, codec.F64, nil), nil
}

func TestEpochSurfacesDatasetError(t *testing.T) {
	ds := &failingDataset{n: 12, failAt: 7}
	l, _ := New(ds, Config{BatchSize: 4, Workers: 2})
	sawErr := false
	for r := range l.Epoch(0) {
		if r.Err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("dataset error was swallowed")
	}
}

func TestNewRejectsBadBatchSize(t *testing.T) {
	if _, err := New(&InMemory{}, Config{BatchSize: 0}); err == nil {
		t.Fatal("expected error for batch size 0")
	}
}

func TestInMemoryOutOfRange(t *testing.T) {
	ds := &InMemory{Samples: makeSamples(2)}
	if _, err := ds.Get(5); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestFileDatasetEndToEnd(t *testing.T) {
	store, err := filestore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range makeSamples(9) {
		if _, err := store.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	ds := &FileDataset{Store: store}
	l, _ := New(ds, Config{BatchSize: 4, Workers: 3})
	total := 0
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		total += r.Batch.X.Dim(0)
	}
	if total != 9 {
		t.Fatalf("loaded %d samples from filestore, want 9", total)
	}
}

func TestDocDatasetEndToEnd(t *testing.T) {
	srv := docstore.NewServer(docstore.NewStore(), docstore.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := docstore.Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	enc := codec.Block{}
	var ids []string
	for _, s := range makeSamples(8) {
		raw, err := enc.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		id, err := cl.Insert("train", "", docstore.Fields{"payload": raw})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	ds := &DocDataset{Client: cl, Collection: "train", IDs: ids, Codec: enc}
	l, _ := New(ds, Config{BatchSize: 3, Workers: 2})
	var first []float64
	for r := range l.Epoch(0) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		for i := 0; i < r.Batch.X.Dim(0); i++ {
			first = append(first, r.Batch.X.At(i, 0))
		}
	}
	if len(first) != 8 {
		t.Fatalf("loaded %d samples via docstore, want 8", len(first))
	}
	for i, v := range first {
		if v != float64(i) {
			t.Fatalf("docstore round trip reordered samples: %v", first)
		}
	}
}

func TestDocDatasetBadPayloadField(t *testing.T) {
	srv := docstore.NewServer(docstore.NewStore(), docstore.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := docstore.Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.Insert("c", "", docstore.Fields{"payload": "not bytes"})
	if err != nil {
		t.Fatal(err)
	}
	ds := &DocDataset{Client: cl, Collection: "c", IDs: []string{id}, Codec: codec.Raw{}}
	if _, err := ds.Get(0); err == nil {
		t.Fatal("expected error for non-[]byte payload")
	}
}
