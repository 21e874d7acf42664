package docstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fairdms/internal/wal"
)

// TestQuickRandomOpsKeepIndexesConsistent drives a collection through a
// random sequence of inserts, updates, and deletes and verifies that its
// hash indexes agree with a brute-force replay on an unindexed collection.
func TestQuickRandomOpsKeepIndexesConsistent(t *testing.T) {
	f := func(ops []uint16) bool {
		indexed := NewStore().Collection("a")
		if err := indexed.CreateHashIndex("k"); err != nil {
			return false
		}
		if err := indexed.CreateHashIndex("t"); err != nil {
			return false
		}
		plain := NewStore().Collection("b")
		rng := rand.New(rand.NewSource(42))

		var ids []string
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // insert (weighted)
				k := int(op>>2) % 5
				ts := float64((op>>4)%4) / 7
				id := fmt.Sprintf("d%04d", len(ids))
				if _, err := indexed.Insert(id, Fields{"k": k, "t": ts}); err != nil {
					return false
				}
				if _, err := plain.Insert(id, Fields{"k": k, "t": ts}); err != nil {
					return false
				}
				ids = append(ids, id)
			case 2: // update
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				nk := int(op>>2) % 5
				// Both may fail if the doc was deleted; outcomes must agree.
				e1 := indexed.Update(id, Fields{"k": nk})
				e2 := plain.Update(id, Fields{"k": nk})
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			case 3: // delete
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				e1 := indexed.Delete(id)
				e2 := plain.Delete(id)
				if (e1 == nil) != (e2 == nil) {
					return false
				}
			}
		}

		// Every query must agree between the indexed and plain collections.
		var queries []Query
		for k := 0; k < 5; k++ {
			queries = append(queries, Query{Filters: []Filter{Eq("k", k)}})
			for tn := 0; tn < 4; tn++ {
				queries = append(queries, Query{Filters: []Filter{Eq("k", k), Eq("t", float64(tn)/7)}})
			}
		}
		for tn := 0; tn < 5; tn++ {
			queries = append(queries, Query{Filters: []Filter{Eq("t", float64(tn)/7)}})
		}
		for _, q := range queries {
			qi, err := indexed.FindIDs(q)
			if err != nil {
				return false
			}
			qp, err := plain.FindIDs(q)
			if err != nil {
				return false
			}
			if !equalIDs(qi, qp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func equalIDs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuickWALReplayMatchesModel drives a WAL-durable store through a
// random sequence of inserts, updates, deletes, and multi-op transactions
// with simulated crashes (Abort: the process dies without flushing) and
// reopens interleaved, and asserts after every reopen that the replayed
// store is byte-for-byte the in-memory model. With fsync=always a
// committed op can never be lost, so equality is exact. Beside the plain
// collection the generator keeps the two kinds of document the services
// store in its siblings — one fit document, replaced by delete-and-add in
// one transaction, and model documents numbered by a monotonic seq — with
// every slice-typed value of the normalized set between them.
func TestQuickWALReplayMatchesModel(t *testing.T) {
	f := func(ops []uint16) bool {
		dir := t.TempDir()
		ds, err := OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		defer func() { ds.Close() }()
		model := map[string]int64{} // id → n
		var ids []string
		rng := rand.New(rand.NewSource(7))
		var fit Fields             // the fit document, nil before the first fit
		zoo := map[string]Fields{} // model documents by id

		sameDocs := func(c *Collection, want map[string]Fields) bool {
			if c.Count() != len(want) {
				t.Logf("%s: count = %d; model has %d", c.Name(), c.Count(), len(want))
				return false
			}
			for id, f := range want {
				d, err := c.Get(id)
				if err != nil || !reflect.DeepEqual(d.F, f) {
					t.Logf("%s: doc %s = %v, %v; model wants %v", c.Name(), id, d, err, f)
					return false
				}
			}
			return true
		}
		check := func() bool {
			c := ds.Collection("a")
			fits := map[string]Fields{}
			if fit != nil {
				fits["current"] = fit
			}
			if !sameDocs(c.Sibling(".fit"), fits) || !sameDocs(c.Sibling(".zoo"), zoo) {
				return false
			}
			if c.Count() != len(model) {
				t.Logf("count = %d; model has %d", c.Count(), len(model))
				return false
			}
			for id, n := range model {
				d, err := c.Get(id)
				if err != nil || d.F["n"] != n {
					t.Logf("doc %s = %v, %v; model wants n=%d", id, d, err, n)
					return false
				}
			}
			return true
		}

		for _, op := range ops {
			c := ds.Collection("a")
			switch op % 10 {
			case 8: // publish a fit: the one document is replaced whole
				k, dim := int64(op>>4%3+1), int64(2)
				centers := make([]float64, k*dim)
				for i := range centers {
					centers[i] = float64(op) / float64(i+1)
				}
				f := Fields{"fit": fmt.Sprintf("%04x", op), "k": k, "dim": dim, "centers": centers, "fuzzifier": 2.0, "embedder": "e"}
				var txn []TxnOp
				if fit != nil {
					txn = append(txn, TxnOp{Kind: TxnDelete, ID: "current"})
				}
				txn = append(txn, TxnOp{Kind: TxnAdd, ID: "current", F: f})
				if _, err := c.Sibling(".fit").ApplyTxn(txn); err != nil {
					t.Logf("fit: %v", err)
					return false
				}
				fit = f
			case 9: // register a model
				id := fmt.Sprintf("m%04d", len(zoo))
				f := Fields{
					"state": bytes.Repeat([]byte{byte(op)}, int(op>>4%64)+1), "pdf": []float64{0.25, 0.75},
					"meta": []string{"epochs", fmt.Sprint(op)}, "fit": "", "added_at": int64(op), "seq": int64(len(zoo) + 1),
				}
				if fit != nil {
					f["fit"] = fit["fit"]
				}
				if _, err := c.Sibling(".zoo").Insert(id, f); err != nil {
					t.Logf("model: %v", err)
					return false
				}
				zoo[id] = f
			case 0, 1, 2: // insert
				id := fmt.Sprintf("d%04d", len(ids))
				n := int64(op >> 3)
				if _, err := c.Insert(id, Fields{"n": n}); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				model[id] = n
				ids = append(ids, id)
			case 3: // update
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				n := int64(op >> 3)
				err := c.Update(id, Fields{"n": n})
				if _, live := model[id]; live != (err == nil) {
					t.Logf("update %s: err=%v but model live=%v", id, err, live)
					return false
				}
				if err == nil {
					model[id] = n
				}
			case 4: // delete
				if len(ids) == 0 {
					continue
				}
				id := ids[rng.Intn(len(ids))]
				err := c.Delete(id)
				if _, live := model[id]; live != (err == nil) {
					t.Logf("delete %s: err=%v but model live=%v", id, err, live)
					return false
				}
				delete(model, id)
			case 5: // multi-op txn: two inserts and maybe a delete
				a := fmt.Sprintf("d%04d", len(ids))
				b := fmt.Sprintf("d%04d", len(ids)+1)
				n := int64(op >> 3)
				txn := []TxnOp{{Kind: TxnAdd, ID: a, F: Fields{"n": n}}, {Kind: TxnAdd, ID: b, F: Fields{"n": n + 1}}}
				victim := ""
				if len(ids) > 0 {
					id := ids[rng.Intn(len(ids))]
					if _, live := model[id]; live {
						txn = append(txn, TxnOp{Kind: TxnDelete, ID: id})
						victim = id
					}
				}
				if _, err := c.ApplyTxn(txn); err != nil {
					t.Logf("txn: %v", err)
					return false
				}
				model[a], model[b] = n, n+1
				ids = append(ids, a, b)
				if victim != "" {
					delete(model, victim)
				}
			case 6: // crash (no flush) and reopen: replay must equal model
				ds.Abort()
				ds, err = OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways})
				if err != nil {
					t.Logf("reopen after abort: %v", err)
					return false
				}
				if !check() {
					return false
				}
			case 7: // compact, sometimes followed by a crash-reopen
				if err := ds.Compact(); err != nil {
					t.Logf("compact: %v", err)
					return false
				}
				if op>>3%2 == 0 {
					ds.Abort()
					ds, err = OpenDurable(DurableOptions{Dir: dir, Policy: wal.SyncAlways})
					if err != nil {
						t.Logf("reopen after compact: %v", err)
						return false
					}
				}
				if !check() {
					return false
				}
			}
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSampleIsSubsetOfMatches: sampling never fabricates documents.
func TestQuickSampleIsSubsetOfMatches(t *testing.T) {
	c := NewStore().Collection("x")
	c.CreateHashIndex("k")
	for i := 0; i < 60; i++ {
		c.Insert("", Fields{"k": i % 3})
	}
	f := func(nSeed uint8, seed int64) bool {
		n := int(nSeed % 40)
		q := Query{Filters: []Filter{Eq("k", 1)}}
		sampled, err := c.SampleIDs(q, n, seed)
		if err != nil {
			return false
		}
		all, err := c.FindIDs(q)
		if err != nil {
			return false
		}
		universe := map[string]bool{}
		for _, id := range all {
			universe[id] = true
		}
		for _, id := range sampled {
			if !universe[id] {
				return false
			}
		}
		want := n
		if want > len(all) {
			want = len(all)
		}
		return len(sampled) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
