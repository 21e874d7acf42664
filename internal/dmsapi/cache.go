package dmsapi

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"fairdms/internal/obs"
)

// cache is a singleflight-coalescing LRU. Many concurrent training jobs
// ask the service the same question at the same moment (the same dataset
// PDF, the same recommend query), so the cache serves three roles:
//
//  1. duplicate suppression: a key already being computed is computed once;
//     latecomers block on the in-flight call and share its result
//     (singleflight),
//  2. memoization: completed results are kept in a bounded LRU so repeat
//     queries skip the compute entirely,
//  3. observability: hit/miss/coalesce/eviction counters feed /metricsz.
//
// A capacity of zero disables memoization but keeps coalescing — in-flight
// duplicates still collapse to one compute, results just aren't retained.
type cache struct {
	cap int

	mu    sync.Mutex
	ll    *list.List               // guarded by mu; front = most recently used
	items map[string]*list.Element // guarded by mu; key → element whose Value is *entry
	calls map[string]*call         // guarded by mu; in-flight computations

	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	evictions atomic.Int64
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation; done is closed when val/err are set.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// newCache returns a cache retaining up to capacity completed results.
func newCache(capacity int) *cache {
	if capacity < 0 {
		capacity = 0
	}
	return &cache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		calls: make(map[string]*call),
	}
}

// do returns the cached value for key, joins an in-flight computation for
// key, or runs fn and caches its result. Errors are never cached: a failed
// compute is retried by the next caller. The whole lookup — hit, coalesced
// wait, or compute — is recorded as a cache_lookup span on ctx's trace, so
// a slow cached endpoint shows whether it waited on someone else's compute
// or ran its own (the compute's stages appear as child spans).
func (c *cache) do(ctx context.Context, key string, fn func(ctx context.Context) (any, error)) (any, error) {
	ctx, span := obs.StartSpan(ctx, "cache_lookup")
	defer span.End()
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		val := el.Value.(*entry).val
		c.mu.Unlock()
		c.hits.Add(1)
		return val, nil
	}
	if cl, ok := c.calls[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		<-cl.done
		return cl.val, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.calls[key] = cl
	c.mu.Unlock()
	c.misses.Add(1)

	// The deferred cleanup runs even if fn panics: the in-flight entry is
	// removed and done is closed (coalesced waiters see errPanicked rather
	// than blocking forever), then the panic resumes up the handler stack.
	defer func() {
		c.mu.Lock()
		delete(c.calls, key)
		if cl.err == nil && c.cap > 0 {
			c.items[key] = c.ll.PushFront(&entry{key: key, val: cl.val})
			for c.ll.Len() > c.cap {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.items, oldest.Value.(*entry).key)
				c.evictions.Add(1)
			}
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.err = errPanicked // overwritten on normal return
	cl.val, cl.err = fn(ctx)
	return cl.val, cl.err
}

// errPanicked is what coalesced waiters observe when the computation they
// joined panicked instead of returning.
var errPanicked = errors.New("dmsapi: coalesced computation panicked")

// len reports the number of retained results.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
