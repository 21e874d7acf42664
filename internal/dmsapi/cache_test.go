package dmsapi

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheHitAndEviction(t *testing.T) {
	c := newCache(2)
	compute := func(v string) func(context.Context) (any, error) {
		return func(context.Context) (any, error) { return v, nil }
	}
	for _, k := range []string{"a", "b", "a", "c"} {
		if v, err := c.do(context.Background(), k, compute(k)); err != nil || v != k {
			t.Fatalf("do(%s) = %v, %v", k, v, err)
		}
	}
	// "a" was most recently used before "c" arrived, so "b" was evicted.
	if c.hits.Load() != 1 || c.misses.Load() != 3 || c.evictions.Load() != 1 || c.len() != 2 {
		t.Fatalf("hits %d, misses %d, evictions %d, size %d", c.hits.Load(), c.misses.Load(), c.evictions.Load(), c.len())
	}
	calls := 0
	c.do(context.Background(), "b", func(context.Context) (any, error) { calls++; return "b", nil })
	if calls != 1 {
		t.Fatal("evicted key should recompute")
	}
	// Re-adding "b" evicted "a"; "c" is still retained.
	c.do(context.Background(), "c", func(context.Context) (any, error) { calls++; return "", nil })
	if calls != 1 {
		t.Fatal("retained key should not recompute")
	}
}

func TestCacheCoalescesConcurrentCalls(t *testing.T) {
	c := newCache(4)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.do(context.Background(), "hot", func(context.Context) (any, error) {
				computes.Add(1)
				close(started)
				<-release // hold the computation open so others pile up
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	<-started
	time.Sleep(20 * time.Millisecond) // let the rest reach the coalesce path
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for one hot key", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	if c.coalesced.Load()+c.hits.Load() != 9 || c.misses.Load() != 1 {
		t.Fatalf("coalesced %d, hits %d, misses %d", c.coalesced.Load(), c.hits.Load(), c.misses.Load())
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := newCache(4)
	calls := 0
	fail := func(context.Context) (any, error) { calls++; return nil, errors.New("boom") }
	if _, err := c.do(context.Background(), "k", fail); err == nil {
		t.Fatal("expected error")
	}
	if _, err := c.do(context.Background(), "k", fail); err == nil {
		t.Fatal("expected error again")
	}
	if calls != 2 {
		t.Fatalf("failed compute was cached (calls = %d)", calls)
	}
	if c.len() != 0 {
		t.Fatal("error result retained")
	}
}

// TestCachePanicDoesNotPoisonKey checks panic safety: a panicking compute
// must not leave the key's in-flight entry registered (which would block
// every later caller forever).
func TestCachePanicDoesNotPoisonKey(t *testing.T) {
	c := newCache(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.do(context.Background(), "k", func(context.Context) (any, error) { panic("boom") })
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.do(context.Background(), "k", func(context.Context) (any, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Errorf("do after panic = %v, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("key poisoned: second caller blocked after a panicking compute")
	}
}

func TestCacheZeroCapacityCoalescesOnly(t *testing.T) {
	c := newCache(0)
	calls := 0
	compute := func(context.Context) (any, error) { calls++; return 1, nil }
	c.do(context.Background(), "k", compute)
	c.do(context.Background(), "k", compute)
	if calls != 2 {
		t.Fatalf("zero-capacity cache memoized (calls = %d)", calls)
	}
	if n := c.len(); n != 0 {
		t.Fatalf("size = %d", n)
	}
}
