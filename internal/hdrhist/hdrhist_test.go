package hdrhist

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and indices
	// must be monotone in the value.
	for b := 0; b < numBuckets; b++ {
		lo := bucketLow(b)
		if got := bucketIndex(lo); got != b {
			t.Fatalf("bucketIndex(bucketLow(%d)=%d) = %d", b, lo, got)
		}
	}
	prev := -1
	for _, v := range []int64{0, 1, 5, 31, 32, 33, 63, 64, 100, 1000, 1e6, 1e9, 1e12} {
		b := bucketIndex(v)
		if b < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, b, prev)
		}
		prev = b
	}
}

func TestQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 µs: p50 ≈ 500µs, p99 ≈ 990µs, within bucket error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	}
	for _, c := range checks {
		got := s.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.90)
		hi := time.Duration(float64(c.want) * 1.10)
		if got < lo || got > hi {
			t.Errorf("p%g = %v, want within 10%% of %v", c.q*100, got, c.want)
		}
	}
	if s.Max() != time.Millisecond {
		t.Errorf("max = %v, want 1ms", s.Max())
	}
	if mean := s.Mean(); mean < 450*time.Microsecond || mean > 550*time.Microsecond {
		t.Errorf("mean = %v, want ≈ 500µs", mean)
	}
}

func TestEmptyAndSingleValue(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.99) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatalf("empty snapshot not all-zero: %+v", s)
	}
	h.Record(42 * time.Millisecond)
	s = h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got > 42*time.Millisecond || got < 40*time.Millisecond {
			t.Errorf("single-value p%g = %v, want ≈ 42ms (≤ max)", q*100, got)
		}
	}
	h.Record(-time.Second) // clamped, must not panic or corrupt
	if s := h.Snapshot(); s.Count != 2 {
		t.Errorf("count after clamp = %d, want 2", s.Count)
	}
}

// TestSnapshotDuringRecording is the /metricsz regression test: snapshotting
// must not race with in-flight recording (run under -race), and every
// snapshot must be internally sane — count never decreasing, quantiles
// within the recorded value range.
func TestSnapshotDuringRecording(t *testing.T) {
	var h Histogram
	const writers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Record(time.Duration(1+rng.Intn(1_000_000)) * time.Microsecond)
			}
		}(w)
	}
	var prevCount int64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < prevCount {
			t.Fatalf("snapshot %d: count went backwards: %d < %d", i, s.Count, prevCount)
		}
		prevCount = s.Count
		if s.Count == 0 {
			continue
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			v := s.Quantile(q)
			if v < 0 || v > time.Duration(s.MaxNS) {
				t.Fatalf("snapshot %d: p%g = %v outside [0, %v]", i, q*100, v, s.Max())
			}
		}
	}
	close(stop)
	wg.Wait()
	final := h.Snapshot()
	if final.bucketTotal != final.Count {
		t.Fatalf("quiescent snapshot: bucket total %d != count %d", final.bucketTotal, final.Count)
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		d := 137 * time.Microsecond
		for pb.Next() {
			h.Record(d)
		}
	})
}

func BenchmarkSnapshot(b *testing.B) {
	var h Histogram
	for i := 0; i < 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Quantile(0.99)
	}
}

// TestRecordN pins the bulk-record path: n identical observations behave
// exactly like n Record calls, and bulk merges commute across order.
func TestRecordN(t *testing.T) {
	var bulk, loop Histogram
	bulk.RecordN(3*time.Millisecond, 100)
	bulk.RecordN(9*time.Millisecond, 50)
	for i := 0; i < 100; i++ {
		loop.Record(3 * time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		loop.Record(9 * time.Millisecond)
	}
	bs, ls := bulk.Snapshot(), loop.Snapshot()
	if bs.Count != ls.Count || bs.SumNS != ls.SumNS || bs.MaxNS != ls.MaxNS {
		t.Errorf("bulk (%d,%d,%d) != loop (%d,%d,%d)",
			bs.Count, bs.SumNS, bs.MaxNS, ls.Count, ls.SumNS, ls.MaxNS)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if bs.Quantile(q) != ls.Quantile(q) {
			t.Errorf("q%v: bulk %v != loop %v", q, bs.Quantile(q), ls.Quantile(q))
		}
	}

	// Merge order must not matter: recording the same weighted sets in
	// reverse yields identical snapshots.
	var fwd, rev Histogram
	sets := []struct {
		d time.Duration
		n int64
	}{{time.Millisecond, 500}, {40 * time.Millisecond, 9}, {2 * time.Second, 1}}
	for _, s := range sets {
		fwd.RecordN(s.d, s.n)
	}
	for i := len(sets) - 1; i >= 0; i-- {
		rev.RecordN(sets[i].d, sets[i].n)
	}
	fs, rs := fwd.Snapshot(), rev.Snapshot()
	if fs.Quantile(0.5) != rs.Quantile(0.5) || fs.Quantile(0.999) != rs.Quantile(0.999) || fs.Count != rs.Count {
		t.Error("RecordN merge is order-dependent")
	}

	// Non-positive n is a no-op.
	var empty Histogram
	empty.RecordN(time.Second, 0)
	empty.RecordN(time.Second, -5)
	if empty.Snapshot().Count != 0 {
		t.Error("non-positive n recorded something")
	}
}
