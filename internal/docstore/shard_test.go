package docstore

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestShardCountIsPowerOfTwo(t *testing.T) {
	for _, want := range []struct{ ask, got int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		c := newCollectionShards("x", want.ask)
		if len(c.shards) != want.got {
			t.Fatalf("shards(%d) = %d, want %d", want.ask, len(c.shards), want.got)
		}
	}
	if n := len(newCollection("x").shards); n&(n-1) != 0 || n < 1 {
		t.Fatalf("default shard count %d is not a power of two", n)
	}
}

// TestShardedMatchesSingleShard runs the same workload against a 1-shard
// and an 8-shard collection and requires identical query results — the
// stripe layout must be invisible to callers.
func TestShardedMatchesSingleShard(t *testing.T) {
	one := newCollectionShards("c", 1)
	many := newCollectionShards("c", 8)
	for _, c := range []*Collection{one, many} {
		if err := c.CreateHashIndex("k"); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateHashIndex("t"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			id := fmt.Sprintf("d%04d", i)
			if _, err := c.Insert(id, Fields{"k": i % 7, "t": float64(i % 13), "v": i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200; i += 9 {
			if err := c.Delete(fmt.Sprintf("d%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 200; i += 17 {
			if i%9 == 0 {
				continue // deleted above
			}
			if err := c.Update(fmt.Sprintf("d%04d", i), Fields{"k": 99}); err != nil {
				t.Fatal(err)
			}
		}
	}
	queries := []Query{
		{},
		{Filters: []Filter{Eq("k", 3)}},
		{Filters: []Filter{Eq("k", 99)}},
		{Filters: []Filter{Eq("t", 6)}},
		{Filters: []Filter{Eq("t", 6), Eq("k", 2)}},
		{Filters: []Filter{Eq("v", 40)}},
		{Filters: []Filter{Eq("k", 99), Eq("v", 52)}},
	}
	for _, q := range queries {
		a, err := one.FindIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := many.FindIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a, b) {
			t.Fatalf("query %+v: 1-shard %v vs 8-shard %v", q, a, b)
		}
		na, _ := one.CountWhere(q)
		nb, _ := many.CountWhere(q)
		if na != nb {
			t.Fatalf("query %+v: counts %d vs %d", q, na, nb)
		}
	}
}

// TestShardedConcurrentMutations drives concurrent Insert/Update/Delete/
// Find/Count across shards; run under -race this is the striped-locking
// soundness check.
func TestShardedConcurrentMutations(t *testing.T) {
	c := newCollectionShards("c", 8)
	if err := c.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 60
	var wg sync.WaitGroup
	errs := make(chan error, writers*4)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []string
			for i := 0; i < perWriter; i++ {
				id, err := c.Insert("", Fields{"k": i % 5, "t": float64(i), "w": w})
				if err != nil {
					errs <- err
					return
				}
				mine = append(mine, id)
				if i%3 == 0 {
					if err := c.Update(id, Fields{"k": (i + 1) % 5}); err != nil {
						errs <- err
						return
					}
				}
				if i%7 == 0 && len(mine) > 1 {
					if err := c.Delete(mine[0]); err != nil {
						errs <- err
						return
					}
					mine = mine[1:]
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				if _, err := c.FindIDs(Query{Filters: []Filter{Eq("k", i%5)}}); err != nil {
					errs <- err
					return
				}
				if _, err := c.CountWhere(Query{Filters: []Filter{Eq("t", float64(i%20))}}); err != nil {
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
	// Final state: indexes agree with a brute-force scan.
	for k := 0; k < 5; k++ {
		indexed, err := c.FindIDs(Query{Filters: []Filter{Eq("k", k)}})
		if err != nil {
			t.Fatal(err)
		}
		brute := bruteFind(c, "k", int64(k))
		if !equalIDs(indexed, brute) {
			t.Fatalf("k=%d: index disagrees with scan after concurrent ops", k)
		}
	}
}

// TestClientPoolIsHardCap is the regression test for the unbounded-dial
// bug: M goroutines hammering one server through a poolSize-connection
// client must never open more than poolSize simultaneous TCP connections.
func TestClientPoolIsHardCap(t *testing.T) {
	const poolSize, workers, perWorker = 4, 32, 25
	srv, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, poolSize)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := cl.Insert("c", id, Fields{"w": w}); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Get("c", id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if peak := srv.PeakConns(); peak > poolSize {
		t.Fatalf("server saw %d simultaneous connections; pool cap is %d", peak, poolSize)
	}
	n, err := cl.Count("c", Query{})
	if err != nil || n != workers*perWorker {
		t.Fatalf("count = %d err=%v", n, err)
	}
}

// TestServerHandlesPipelinedRequestsConcurrently speaks the wire protocol
// directly, as a peer that pipelines (Client does not): K requests on one
// connection against a server with per-request latency must complete in
// roughly one latency period (the connWorkers pool, K ≤ connWorkers), not K
// of them (sequential), and every response's Seq must match a request.
func TestServerHandlesPipelinedRequestsConcurrently(t *testing.T) {
	const latency = 100 * time.Millisecond
	const k = 4
	_, addr := startTestServer(t, ServerConfig{Latency: latency})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)

	start := time.Now()
	for i := 1; i <= k; i++ {
		if err := enc.Encode(&request{Seq: uint64(i), Op: opPing}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[uint64]bool{}
	for i := 0; i < k; i++ {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("ping %d: %s", resp.Seq, resp.Err)
		}
		if resp.Seq < 1 || resp.Seq > k || seen[resp.Seq] {
			t.Fatalf("bad or duplicate response seq %d", resp.Seq)
		}
		seen[resp.Seq] = true
	}
	elapsed := time.Since(start)
	if sequential := time.Duration(k) * latency; elapsed >= sequential-latency/2 {
		t.Fatalf("pipelined requests took %v; sequential handling would take %v", elapsed, sequential)
	}
}

// TestFailedHashIndexRollsBack: a hash-index build that fails partway
// leaves no fragment on any stripe and the field unindexed, and queries
// on the field still answer by scan.
func TestFailedHashIndexRollsBack(t *testing.T) {
	c := newCollectionShards("c", 4)
	for i := 0; i < 20; i++ {
		if _, err := c.Insert("", Fields{"t": "label"}); err != nil {
			t.Fatal(err)
		}
	}
	// The unindexable value sits on the last stripe, so the build fails
	// after the first three have their fragment.
	bad := ""
	for i := 0; c.shardIndexFor(bad) != 3; i++ {
		bad = fmt.Sprintf("bad-%d", i)
	}
	if _, err := c.Insert(bad, Fields{"t": []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateHashIndex("t"); err == nil {
		t.Fatal("expected a hash index over a []float64 value to fail")
	}
	if idx := c.Indexes(); len(idx) != 0 {
		t.Fatalf("indexes after failed build: %v", idx)
	}
	for i, s := range c.shards {
		s.mu.RLock()
		_, kept := s.hashIdx["t"]
		s.mu.RUnlock()
		if kept {
			t.Fatalf("stripe %d kept a fragment of the failed index", i)
		}
	}
	ids, err := c.FindIDs(Query{Filters: []Filter{Eq("t", "label")}})
	if err != nil || len(ids) != 20 {
		t.Fatalf("scan after failed build: %d ids, err=%v; want 20", len(ids), err)
	}
}

// TestInsertManyRollsBackAtomically: a batch with an unindexable value
// stores nothing.
func TestInsertManyRollsBackAtomically(t *testing.T) {
	c := newCollectionShards("c", 4)
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	batch := []Fields{
		{"t": 1.0}, {"t": 2.0}, {"t": []float64{3}}, {"t": 4.0},
	}
	if _, err := c.InsertMany(batch); err == nil {
		t.Fatal("expected error for an unindexable hash-index value")
	}
	if n := c.Count(); n != 0 {
		t.Fatalf("failed batch left %d documents behind", n)
	}
	// The collection remains usable and the index consistent.
	if _, err := c.Insert("", Fields{"t": 9.0}); err != nil {
		t.Fatal(err)
	}
	ids, err := c.FindIDs(Query{Filters: []Filter{Eq("t", 9)}})
	if err != nil || len(ids) != 1 {
		t.Fatalf("ids=%v err=%v", ids, err)
	}
}
