package docstore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"fairdms/internal/wal"
)

// oracleDraw is the draw rule by brute force: every match listed, sorted
// by (DrawRank, id), the first n, returned sorted by ID.
func oracleDraw(t *testing.T, ids []string, n int, seed int64) []string {
	t.Helper()
	ids = slices.Clone(ids)
	sort.Slice(ids, func(i, j int) bool {
		ri, rj := DrawRank(seed, ids[i]), DrawRank(seed, ids[j])
		if ri != rj {
			return ri < rj
		}
		return ids[i] < ids[j]
	})
	if n < 0 {
		n = 0
	}
	ids = ids[:min(n, len(ids))]
	sort.Strings(ids)
	return ids
}

func mustDraw(t *testing.T, c *Collection, q Query, n int, seed int64) []string {
	t.Helper()
	ids, err := c.SampleIDs(q, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func mustFindIDs(t *testing.T, c *Collection, q Query) []string {
	t.Helper()
	ids, err := c.FindIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// drawCorpus fills a collection with two hash-indexed fields and an
// unindexed one, under explicit IDs inserted in the given order.
func drawCorpus(t *testing.T, c *Collection, order []int) {
	t.Helper()
	for _, field := range []string{"cluster", "t"} {
		if err := c.CreateHashIndex(field); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range order {
		f := Fields{"cluster": i % 5, "t": float64(i % 37), "u": i % 3}
		if _, err := c.Insert(fmt.Sprintf("doc-%04d", i), f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSampleIDsEqualsOracle(t *testing.T) {
	c := newCollectionShards("x", 4)
	drawCorpus(t, c, rand.New(rand.NewSource(1)).Perm(400))
	rng := rand.New(rand.NewSource(2))
	pools := []func() Filter{
		func() Filter { return Eq("cluster", rng.Intn(6)) },
		func() Filter { return Eq("t", float64(rng.Intn(38))) },
		func() Filter { return Eq("u", rng.Intn(3)) }, // unindexed
	}
	for trial := 0; trial < 300; trial++ {
		var q Query
		for _, i := range rng.Perm(len(pools))[:rng.Intn(len(pools)+1)] {
			q.Filters = append(q.Filters, pools[i]())
		}
		matches := mustFindIDs(t, c, q)
		seed := rng.Int63() - rng.Int63()
		for _, n := range []int{-3, 0, 1, rng.Intn(len(matches) + 1), len(matches), len(matches) + 7} {
			got := mustDraw(t, c, q, n, seed)
			if want := oracleDraw(t, matches, n, seed); !slices.Equal(got, want) {
				t.Fatalf("query %+v n=%d seed=%d (%d matches):\n got %v\nwant %v", q, n, seed, len(matches), got, want)
			}
		}
	}
}

// TestSampleIDsIndependentOfLayout: the draw is a function of the set of
// matching IDs and the seed, not of how the store happens to hold them.
func TestSampleIDsIndependentOfLayout(t *testing.T) {
	q := Query{Filters: []Filter{Eq("cluster", 2)}}
	draws := func(c *Collection) [][]string {
		var out [][]string
		for _, n := range []int{1, 7, 40, 500} {
			for seed := int64(-1); seed <= 3; seed++ {
				out = append(out, mustDraw(t, c, q, n, seed))
			}
		}
		return out
	}
	ref := newCollectionShards("x", 1)
	drawCorpus(t, ref, rand.New(rand.NewSource(3)).Perm(300))
	want := draws(ref)
	if len(want[10]) != 40 { // n = 40, first seed
		t.Fatalf("reference drew %d of 40", len(want[10]))
	}

	for _, stripes := range []int{2, 8} {
		c := newCollectionShards("x", stripes)
		drawCorpus(t, c, rand.New(rand.NewSource(int64(stripes))).Perm(300))
		if got := draws(c); !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("%d stripes, shuffled insertion: draw differs from 1 stripe", stripes)
		}
	}

	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	drawCorpus(t, ds.Collection("x"), rand.New(rand.NewSource(9)).Perm(300))
	if got := draws(ds.Collection("x")); !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatal("durable store: draw differs from in-memory")
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds = openDurable(t, dir, DurableOptions{Policy: wal.SyncOff})
	defer ds.Close()
	if got := draws(ds.Collection("x")); !slices.EqualFunc(got, want, slices.Equal[[]string]) {
		t.Fatal("after WAL replay: draw differs")
	}
}

// TestDrawDecomposes pins what the cluster router relies on: drawing n
// from each part and keeping the n lowest of those draws is the draw over
// the union; and a draw grows by exactly one member per unit of n.
func TestDrawDecomposes(t *testing.T) {
	union := newCollectionShards("u", 2)
	parts := []*Collection{newCollectionShards("a", 1), newCollectionShards("b", 4), newCollectionShards("c", 2)}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 240; i++ {
		id, f := fmt.Sprintf("n%d-%03d", i%3, i), Fields{"cluster": i % 2}
		if _, err := union.Insert(id, f); err != nil {
			t.Fatal(err)
		}
		if _, err := parts[rng.Intn(len(parts))].Insert(id, f); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Filters: []Filter{Eq("cluster", 1)}}
	for _, seed := range []int64{0, 1, 99} {
		var prev []string
		for n := 1; n <= 125; n++ {
			var gathered []string
			for _, p := range parts {
				gathered = append(gathered, mustDraw(t, p, q, n, seed)...)
			}
			whole := mustDraw(t, union, q, n, seed)
			if merged := oracleDraw(t, gathered, n, seed); !slices.Equal(merged, whole) {
				t.Fatalf("seed %d n=%d: merge of part draws %v != draw over the union %v", seed, n, merged, whole)
			}
			if n <= 120 && len(whole) != n {
				t.Fatalf("seed %d: drew %d of %d", seed, len(whole), n)
			}
			for _, id := range prev {
				if _, found := slices.BinarySearch(whole, id); !found {
					t.Fatalf("seed %d: draw(%d) lost %s from draw(%d)", seed, n, id, n-1)
				}
			}
			prev = whole
		}
	}
}

// TestDrawIsRoughlyUniform: over many seeds — consecutive ones, as fairDS
// uses seed+k — every member of a cluster is drawn about equally often.
func TestDrawIsRoughlyUniform(t *testing.T) {
	c := NewStore().Collection("peaks")
	c.CreateHashIndex("cluster")
	batch := make([]Fields, 200)
	for i := range batch {
		batch[i] = Fields{"cluster": i % 2}
	}
	if _, err := c.InsertMany(batch); err != nil { // sequential generated IDs
		t.Fatal(err)
	}
	const seeds, n, members = 4000, 10, 100
	q := Query{Filters: []Filter{Eq("cluster", 1)}}
	hits := make(map[string]int)
	for seed := int64(0); seed < seeds; seed++ {
		for _, id := range mustDraw(t, c, q, n, seed) {
			hits[id]++
		}
	}
	if len(hits) != members {
		t.Fatalf("%d of %d members ever drawn", len(hits), members)
	}
	p := float64(n) / members
	mean, sd := seeds*p, math.Sqrt(seeds*p*(1-p))
	for id, h := range hits {
		if math.Abs(float64(h)-mean) > 5*sd {
			t.Errorf("%s drawn %d times in %d seeds; want %.0f ± %.0f", id, h, seeds, mean, 5*sd)
		}
	}
}

func TestSampleIDsBesideWriters(t *testing.T) {
	c := newCollectionShards("x", 4)
	c.CreateHashIndex("cluster")
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for round := 0; round < 60; round++ {
				batch := make([]Fields, 16)
				for i := range batch {
					batch[i] = Fields{"cluster": i % 2}
				}
				ids, err := c.InsertMany(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for _, id := range ids[:8] {
					if err := c.Delete(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for seed := int64(r); ; seed += 3 {
				select {
				case <-stop:
					return
				default:
				}
				ids, err := c.SampleIDs(Query{Filters: []Filter{Eq("cluster", 1)}}, 12, seed)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ids) > 12 || !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
					t.Errorf("draw beside writers is not a sorted set of at most 12: %v", ids)
					return
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// Quiesced: the draw is the oracle's again.
	q := Query{Filters: []Filter{Eq("cluster", 1)}}
	if got, want := mustDraw(t, c, q, 12, 5), oracleDraw(t, mustFindIDs(t, c, q), 12, 5); !slices.Equal(got, want) {
		t.Fatalf("after writers: got %v, want %v", got, want)
	}
}

// TestSampleNonPositiveOverTheWire: N arrives unchecked from the network;
// a non-positive count is an empty draw, not a server panic.
func TestSampleNonPositiveOverTheWire(t *testing.T) {
	_, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.InsertMany("peaks", []Fields{{"cluster": 3}, {"cluster": 3}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 0, math.MinInt} {
		ids, err := cl.SampleIDs("peaks", Query{}, n, 5)
		if err != nil || len(ids) != 0 {
			t.Fatalf("SampleIDs(n=%d) = %v, %v; want an empty draw", n, ids, err)
		}
	}
	// Same connection, still serving.
	if ids, err := cl.SampleIDs("peaks", Query{}, 1, 5); err != nil || len(ids) != 1 {
		t.Fatalf("SampleIDs after the bad frames = %v, %v", ids, err)
	}
}

// TestSampleIDsTracksWrites: once a draw has built its slabs, every kind
// of write keeps them true. Inserts, batch inserts and transactions that
// add, delete and move documents between buckets are each followed by
// draws under the slabs' seed and under one never used before, for an
// indexed filter, an indexed plus an unindexed one, and no filter.
func TestSampleIDsTracksWrites(t *testing.T) {
	c := newCollectionShards("x", 4)
	drawCorpus(t, c, rand.New(rand.NewSource(5)).Perm(200))
	queries := []Query{
		{Filters: []Filter{Eq("cluster", 2)}},
		{Filters: []Filter{Eq("cluster", 3), Eq("u", 1)}},
		{},
	}
	// Slabs built before a write are the ones it must keep true; the
	// fresh seed's are built after it.
	old := []int64{11, 12, 13}
	check := func(step string, fresh int64) {
		t.Helper()
		for _, q := range queries {
			matches := mustFindIDs(t, c, q)
			for _, s := range append(old, fresh) {
				for _, n := range []int{1, 4, 9, len(matches) / 2, len(matches) + 1} {
					if got, want := mustDraw(t, c, q, n, s), oracleDraw(t, matches, n, s); !slices.Equal(got, want) {
						t.Fatalf("%s: query %+v n=%d seed=%d:\n got %v\nwant %v", step, q, n, s, got, want)
					}
				}
			}
		}
	}
	check("before any write", old[0])

	rng := rand.New(rand.NewSource(6))
	fields := func() Fields {
		i := rng.Intn(1000)
		return Fields{"cluster": i % 5, "t": float64(i % 37), "u": i % 3}
	}
	live := func() string { // a member of a bucket the queries draw from
		ids := mustFindIDs(t, c, Query{Filters: []Filter{Eq("cluster", 2+rng.Intn(2))}})
		return ids[rng.Intn(len(ids))]
	}
	next := 0
	newID := func() string { next++; return fmt.Sprintf("new-%04d", next) }
	for step := 0; step < 50; step++ {
		var err error
		switch step % 5 {
		case 0:
			_, err = c.Insert(newID(), fields())
		case 1:
			_, err = c.InsertMany([]Fields{fields(), fields(), fields(), fields()})
		case 2: // adds beside a delete
			_, err = c.ApplyTxn([]TxnOp{
				{Kind: TxnAdd, ID: newID(), F: fields()},
				{Kind: TxnDelete, ID: live()},
				{Kind: TxnAdd, ID: newID(), F: fields()},
			})
		case 3: // moves a document to another bucket, by update
			_, err = c.ApplyTxn([]TxnOp{{Kind: TxnUpdate, ID: live(), F: Fields{"cluster": rng.Intn(5), "u": rng.Intn(3)}}})
		case 4: // and by delete and re-add under the same ID
			id := live()
			_, err = c.ApplyTxn([]TxnOp{{Kind: TxnDelete, ID: id}, {Kind: TxnAdd, ID: id, F: fields()}})
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(fmt.Sprintf("after step %d", step), 1000+int64(step))
	}
}

// heldSlabs counts the draw slabs a stripe holds.
func heldSlabs(s *shard) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, idx := range s.hashIdx {
		for _, b := range idx {
			n += len(b.draws)
		}
	}
	return n
}

// TestSampleIDsSlabCap: draws under more seeds than a stripe keeps slabs
// for leave every stripe at or under the cap, and every answer, under a new
// seed or one whose slab was dropped, is still the oracle's.
func TestSampleIDsSlabCap(t *testing.T) {
	c := newCollectionShards("x", 2)
	drawCorpus(t, c, rand.New(rand.NewSource(7)).Perm(300))
	queries := []Query{
		{Filters: []Filter{Eq("cluster", 1)}},
		{Filters: []Filter{Eq("t", 4.0)}},
	}
	for round := 0; round < 2; round++ {
		for seed := int64(0); seed < 2*maxDrawSlabs; seed++ {
			for _, q := range queries {
				if got, want := mustDraw(t, c, q, 5, seed), oracleDraw(t, mustFindIDs(t, c, q), 5, seed); !slices.Equal(got, want) {
					t.Fatalf("round %d query %+v seed %d: got %v, want %v", round, q, seed, got, want)
				}
			}
			for i, s := range c.shards {
				if held := heldSlabs(s); held == 0 || held > maxDrawSlabs {
					t.Fatalf("round %d seed %d: stripe %d holds %d slabs; want 1 to %d", round, seed, i, held, maxDrawSlabs)
				}
			}
		}
		if _, err := c.Insert("", Fields{"cluster": 1, "t": 4.0}); err != nil {
			t.Fatal(err)
		}
	}
}
