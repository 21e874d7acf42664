package docstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestInsertGetRoundTrip(t *testing.T) {
	c := NewStore().Collection("peaks")
	id, err := insertDoc(c, "", Fields{"cluster": 3, "score": 0.5, "name": "p1"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if d.F["cluster"] != int64(3) {
		t.Fatalf("cluster = %v (%T), want int64(3)", d.F["cluster"], d.F["cluster"])
	}
	if d.F["score"] != 0.5 || d.F["name"] != "p1" {
		t.Fatalf("fields = %v", d.F)
	}
}

// TestGenIDMatchesSprintf: a generated ID has the bytes of
// fmt.Sprintf("%s-%08d") at the padding's edges and the counter's, and
// costs one allocation.
func TestGenIDMatchesSprintf(t *testing.T) {
	c := NewStore().Collection("peaks")
	for _, n := range []uint64{0, 1, 99_999_999, 100_000_000, math.MaxUint64} {
		c.nextID.Store(n - 1)
		if got, want := c.genID(), fmt.Sprintf("%s-%08d", c.name, n); got != want {
			t.Errorf("genID at %d = %q; want %q", n, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.genID() }); n != 1 {
		t.Errorf("genID allocates %v times; want 1", n)
	}
}

func TestInsertExplicitAndDuplicateID(t *testing.T) {
	c := NewStore().Collection("x")
	if _, err := insertDoc(c, "a1", Fields{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := insertDoc(c, "a1", Fields{"v": 2}); err == nil {
		t.Fatal("expected duplicate-id error")
	}
}

func TestInsertRejectsUnsupportedType(t *testing.T) {
	c := NewStore().Collection("x")
	if _, err := insertDoc(c, "", Fields{"bad": struct{}{}}); err == nil {
		t.Fatal("expected unsupported-type error")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c := NewStore().Collection("x")
	id, _ := insertDoc(c, "", Fields{"v": 1})
	d, _ := c.Get(id)
	d.F["v"] = int64(99)
	d2, _ := c.Get(id)
	if d2.F["v"] != int64(1) {
		t.Fatal("Get must return an isolated copy")
	}
}

// TestGetManyDocumentsAreCopyOnWrite: GetMany hands out the store's own
// documents, so no write may change one a reader holds. An update merges
// into a fresh field map and a delete drops the document from the store;
// the documents read before keep exactly their fields, indexed ones
// included, and a later GetMany sees the writes.
func TestGetManyDocumentsAreCopyOnWrite(t *testing.T) {
	c := NewStore().Collection("x")
	if err := c.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	ids, err := c.InsertMany([]Fields{{"k": 1, "v": "a"}, {"k": 2, "v": "b"}})
	if err != nil {
		t.Fatal(err)
	}
	held, err := c.GetMany(ids)
	if err != nil {
		t.Fatal(err)
	}
	if err := updateDoc(c, ids[0], Fields{"k": 5, "v": "a2", "w": 3}); err != nil {
		t.Fatal(err)
	}
	if err := deleteDoc(c, ids[1]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []Fields{{"k": int64(1), "v": "a"}, {"k": int64(2), "v": "b"}} {
		if f := held[i].F; len(f) != len(want) || f["k"] != want["k"] || f["v"] != want["v"] || held[i].ID != ids[i] {
			t.Fatalf("document %s held across writes reads %v, want %v", ids[i], f, want)
		}
	}
	now, err := c.GetMany(ids[:1])
	if err != nil {
		t.Fatal(err)
	}
	if f := now[0].F; f["k"] != int64(5) || f["v"] != "a2" || f["w"] != int64(3) {
		t.Fatalf("GetMany after the update reads %v", f)
	}
	if _, err := c.GetMany(ids[1:]); err == nil {
		t.Fatal("GetMany found a deleted document")
	}
}

// TestGetManyDocumentsStayPutUnderWrites reads every field of documents
// GetMany returned while writers update and re-add the same IDs. Under
// -race a write into a document a reader holds is a reported race; without
// it, each held document must keep the value it was read with.
func TestGetManyDocumentsStayPutUnderWrites(t *testing.T) {
	c := NewStore().Collection("x")
	if err := c.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 16; i++ {
		id, err := insertDoc(c, fmt.Sprintf("d%02d", i), Fields{"k": i % 3, "v": int64(0)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= 200; n++ {
				id := ids[(n*7+w)%len(ids)]
				if err := updateDoc(c, id, Fields{"k": n % 3, "v": int64(n)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				docs, err := c.GetMany(ids)
				if err != nil {
					t.Error(err)
					return
				}
				seen := make([]any, len(docs))
				for i, d := range docs {
					seen[i] = d.F["v"]
					for range d.F { // every field, under the race detector's eye
					}
				}
				for i, d := range docs {
					if d.F["v"] != seen[i] {
						t.Errorf("document %s changed from %v to %v while held", d.ID, seen[i], d.F["v"])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestUpdateMergesAndDeleteRemoves(t *testing.T) {
	c := NewStore().Collection("x")
	id, _ := insertDoc(c, "", Fields{"a": 1, "b": 2})
	if err := updateDoc(c, id, Fields{"b": 20, "c": 30}); err != nil {
		t.Fatal(err)
	}
	d, _ := c.Get(id)
	if d.F["a"] != int64(1) || d.F["b"] != int64(20) || d.F["c"] != int64(30) {
		t.Fatalf("after update: %v", d.F)
	}
	if err := deleteDoc(c, id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(id); err == nil {
		t.Fatal("expected not-found after delete")
	}
	if err := updateDoc(c, id, Fields{"a": 1}); err == nil {
		t.Fatal("expected error updating deleted doc")
	}
}

func TestFindFiltersAndOrdering(t *testing.T) {
	c := NewStore().Collection("x")
	for i := 0; i < 10; i++ {
		if _, err := insertDoc(c, "", Fields{"k": i % 3, "v": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := c.Find(Query{Filters: []Filter{Eq("k", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 { // i in [0,10) with i%3==1 → 1, 4, 7
		t.Fatalf("Eq(k,1) matched %d docs, want 3", len(docs))
	}
	for i, d := range docs {
		if want := float64(3*i + 1); d.F["v"] != want {
			t.Fatalf("Eq(k,1) doc %d has v=%v, want %v (ID order)", i, d.F["v"], want)
		}
	}
	// Filters are a conjunction; an int query value matches a float field.
	ids, err := c.FindIDs(Query{Filters: []Filter{Eq("k", 1), Eq("v", 4)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != docs[1].ID {
		t.Fatalf("Eq(k,1) ∧ Eq(v,4) = %v, want [%s]", ids, docs[1].ID)
	}
	// No filter lists every document in ID order.
	all, err := c.FindIDs(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 || !sort.StringsAreSorted(all) {
		t.Fatalf("FindIDs(Query{}) = %v, want 10 sorted ids", all)
	}
}

func TestFindMissingFieldNeverMatches(t *testing.T) {
	c := NewStore().Collection("x")
	insertDoc(c, "", Fields{"a": 1})
	n, _ := c.CountWhere(Query{Filters: []Filter{Eq("missing", 1)}})
	if n != 0 {
		t.Fatalf("matched %d docs on missing field", n)
	}
}

func TestHashIndexConsistentWithScan(t *testing.T) {
	c := NewStore().Collection("x")
	if err := c.CreateHashIndex("cluster"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		insertDoc(c, "", Fields{"cluster": i % 5, "v": i})
	}
	// Delete some, update some — index must track.
	ids, _ := c.FindIDs(Query{})
	deleteDoc(c, ids[0])
	updateDoc(c, ids[1], Fields{"cluster": 99})

	for k := 0; k < 5; k++ {
		indexed, err := c.FindIDs(Query{Filters: []Filter{Eq("cluster", k)}})
		if err != nil {
			t.Fatal(err)
		}
		// Brute-force check against unindexed collection.
		brute := bruteFind(c, "cluster", int64(k))
		if len(indexed) != len(brute) {
			t.Fatalf("cluster %d: index %d vs scan %d", k, len(indexed), len(brute))
		}
		for i := range indexed {
			if indexed[i] != brute[i] {
				t.Fatalf("cluster %d: index/scan mismatch at %d", k, i)
			}
		}
	}
	got, _ := c.FindIDs(Query{Filters: []Filter{Eq("cluster", 99)}})
	if len(got) != 1 || got[0] != ids[1] {
		t.Fatalf("updated doc not reindexed: %v", got)
	}
}

// bruteFind scans every doc without using indexes.
func bruteFind(c *Collection, field string, want int64) []string {
	var out []string
	all, _ := c.FindIDs(Query{})
	for _, id := range all {
		d, err := c.Get(id)
		if err != nil {
			continue
		}
		if v, ok := d.F[field]; ok && valuesEqual(v, want) {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func TestSampleIDs(t *testing.T) {
	c := NewStore().Collection("x")
	for i := 0; i < 20; i++ {
		insertDoc(c, "", Fields{"cluster": i % 2})
	}
	ids, err := c.SampleIDs(Query{Filters: []Filter{Eq("cluster", 0)}}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("sampled %d ids, want 4", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatal("sample contains duplicates")
		}
		seen[id] = true
		d, _ := c.Get(id)
		if d.F["cluster"] != int64(0) {
			t.Fatal("sampled doc violates filter")
		}
	}
	// Asking for more than available returns all matches.
	ids, _ = c.SampleIDs(Query{Filters: []Filter{Eq("cluster", 0)}}, 100, 7)
	if len(ids) != 10 {
		t.Fatalf("oversample returned %d, want 10", len(ids))
	}
	// Deterministic for a given seed.
	a, _ := c.SampleIDs(Query{}, 5, 3)
	b, _ := c.SampleIDs(Query{}, 5, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

func TestInsertManyAndCount(t *testing.T) {
	c := NewStore().Collection("x")
	batch := make([]Fields, 100)
	for i := range batch {
		batch[i] = Fields{"i": i}
	}
	ids, err := c.InsertMany(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 || c.Count() != 100 {
		t.Fatalf("InsertMany stored %d/%d", len(ids), c.Count())
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	c := NewStore().Collection("x")
	if err := c.CreateHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := insertDoc(c, "", Fields{"k": i % 5, "w": w}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.FindIDs(Query{Filters: []Filter{Eq("k", i%5)}}); err != nil {
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
	if c.Count() != 200 {
		t.Fatalf("count = %d, want 200", c.Count())
	}
}

func TestFindProjection(t *testing.T) {
	c := NewStore().Collection("x")
	id, _ := insertDoc(c, "", Fields{"a": 1, "b": "keep", "big": []byte{1, 2, 3}})
	docs, err := c.Find(Query{Project: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].ID != id {
		t.Fatalf("docs = %v", docs)
	}
	if docs[0].F["b"] != "keep" {
		t.Fatal("projected field missing")
	}
	if _, ok := docs[0].F["a"]; ok {
		t.Fatal("unprojected field leaked")
	}
	if _, ok := docs[0].F["big"]; ok {
		t.Fatal("payload leaked through projection")
	}
	// Projecting a nonexistent field yields empty field maps, not errors.
	docs, err = c.Find(Query{Project: []string{"missing"}})
	if err != nil || len(docs) != 1 || len(docs[0].F) != 0 {
		t.Fatalf("missing-field projection: %v, %v", docs, err)
	}
}

func TestFindProjectionOverWire(t *testing.T) {
	_, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := sendInsert(cl, "c", "", Fields{"keep": 1, "drop": 2}); err != nil {
		t.Fatal(err)
	}
	docs, err := cl.Find("c", Query{Project: []string{"keep"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].F["keep"] != int64(1) {
		t.Fatalf("docs = %v", docs)
	}
	if _, ok := docs[0].F["drop"]; ok {
		t.Fatal("unprojected field crossed the wire")
	}
}

func TestStoreNames(t *testing.T) {
	s := NewStore()
	s.Collection("b")
	s.Collection("a")
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
	if s.Collection("a") != s.Collection("a") {
		t.Fatal("Collection must return the existing collection")
	}
}

// Property: after any sequence of inserts with cluster labels, the hash
// index returns exactly the docs a full scan would.
func TestQuickIndexMatchesScan(t *testing.T) {
	f := func(labels []uint8) bool {
		c := NewStore().Collection("x")
		if err := c.CreateHashIndex("k"); err != nil {
			return false
		}
		for _, l := range labels {
			if _, err := insertDoc(c, "", Fields{"k": int(l % 4)}); err != nil {
				return false
			}
		}
		for k := 0; k < 4; k++ {
			indexed, err := c.FindIDs(Query{Filters: []Filter{Eq("k", k)}})
			if err != nil {
				return false
			}
			brute := bruteFind(c, "k", int64(k))
			if len(indexed) != len(brute) {
				return false
			}
			for i := range indexed {
				if indexed[i] != brute[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- Server / client tests ---

func startTestServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := NewServer(NewStore(), cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestClientServerCRUD(t *testing.T) {
	_, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.CreateHashIndex("peaks", "cluster"); err != nil {
		t.Fatal(err)
	}
	id, err := sendInsert(cl, "peaks", "", Fields{"cluster": 1, "payload": []byte{9, 8}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := cl.Get("peaks", id)
	if err != nil {
		t.Fatal(err)
	}
	if d.F["cluster"] != int64(1) {
		t.Fatalf("cluster = %v", d.F["cluster"])
	}
	payload, ok := d.F["payload"].([]byte)
	if !ok || len(payload) != 2 || payload[0] != 9 {
		t.Fatalf("payload = %v", d.F["payload"])
	}

	if err := sendUpdate(cl, "peaks", id, Fields{"cluster": 2}); err != nil {
		t.Fatal(err)
	}
	n, err := cl.Count("peaks", Query{Filters: []Filter{Eq("cluster", 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d", n)
	}

	ids, err := sendInsertMany(cl, "peaks", []Fields{{"cluster": 3}, {"cluster": 3}})
	if err != nil || len(ids) != 2 {
		t.Fatalf("InsertMany ids=%v err=%v", ids, err)
	}
	docs, err := cl.GetMany("peaks", ids)
	if err != nil || len(docs) != 2 {
		t.Fatalf("GetMany docs=%d err=%v", len(docs), err)
	}

	sampled, err := cl.SampleIDs("peaks", Query{Filters: []Filter{Eq("cluster", 3)}}, 1, 5)
	if err != nil || len(sampled) != 1 {
		t.Fatalf("SampleIDs = %v err=%v", sampled, err)
	}

	if _, err := cl.ApplyTxn("peaks", []TxnOp{{Kind: TxnDelete, ID: id}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("peaks", id); err == nil {
		t.Fatal("expected not-found over the wire")
	}
}

func TestClientParallelRequests(t *testing.T) {
	_, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := sendInsert(cl, "c", id, Fields{"w": w}); err != nil {
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
	n, err := cl.Count("c", Query{})
	if err != nil || n != 160 {
		t.Fatalf("count = %d err=%v", n, err)
	}
}

func TestClientSurvivesInjectedConnectionDrops(t *testing.T) {
	// The server drops connections after ~30% of requests; the pooled
	// client must retry on a fresh connection and still complete.
	_, addr := startTestServer(t, ServerConfig{FaultRate: 0.3, FaultSeed: 42})
	cl, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 50; i++ {
		if _, err := sendInsert(cl, "c", "", Fields{"i": i}); err != nil {
			t.Fatalf("insert %d failed despite retry: %v", i, err)
		}
	}
	n, err := cl.Count("c", Query{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("count = %d, want 50", n)
	}
}

func TestDialFailsFastOnBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 1); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startTestServer(t, ServerConfig{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestValueComparisons(t *testing.T) {
	for _, tc := range []struct {
		a, b any
		want bool
	}{
		{int64(2), 2.0, true},
		{int64(2), 2.5, false},
		{2.0, 2, true},
		{"a", "a", true},
		{"a", "b", false},
		{"a", int64(1), false},
		{int64(1), "1", false},
		{true, true, true},
		{false, true, false},
		{false, int64(0), false},
		{[]byte("a"), []byte("a"), false},
		{nil, nil, false},
	} {
		if got := valuesEqual(tc.a, tc.b); got != tc.want {
			t.Errorf("valuesEqual(%#v, %#v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestIndexKeyMatchesPrintfG holds indexKey's strconv formatting to the
// fmt.Sprintf("n:%g") / ("b:%t") strings it replaced: hash-index buckets
// are keyed by them and a draw ranks what a bucket holds, so a changed
// string would change which documents a draw returns.
func TestIndexKeyMatchesPrintfG(t *testing.T) {
	nums := []any{
		0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1e21, 1e20, 1e-5, 1e-4, 123456.0, 1234567.0, 0.1, 1.0 / 3,
		float64(1<<53 + 1), int64(1<<53 + 1), int64(math.MinInt64), int64(math.MaxInt64),
		int64(0), int64(-7), 3, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	for _, v := range nums {
		f, _ := asFloat(v)
		want := fmt.Sprintf("n:%g", f)
		if got, err := indexKey(v); err != nil || got != want {
			t.Errorf("indexKey(%T %v) = %q, %v; want %q", v, v, got, err, want)
		}
	}
	for _, b := range []bool{true, false} {
		if got, err := indexKey(b); err != nil || got != fmt.Sprintf("b:%t", b) {
			t.Errorf("indexKey(%v) = %q, %v", b, got, err)
		}
	}
}
