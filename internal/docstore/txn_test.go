package docstore

import (
	"encoding/gob"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"fairdms/internal/wal"
)

func TestApplyTxnAllOps(t *testing.T) {
	c := NewStore().Collection("peaks")
	if _, err := insertDoc(c, "seed", Fields{"n": 0}); err != nil {
		t.Fatal(err)
	}
	ids, err := c.ApplyTxn([]TxnOp{
		{Kind: TxnAdd, F: Fields{"n": 1}},
		{Kind: TxnAdd, ID: "named", F: Fields{"n": 2}},
		{Kind: TxnUpdate, ID: "seed", F: Fields{"n": 10}},
		{Kind: TxnDelete, ID: "named"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 || ids[0] == "" || ids[1] != "named" || ids[2] != "seed" || ids[3] != "named" {
		t.Fatalf("ids = %v", ids)
	}
	if d, err := c.Get("seed"); err != nil || d.F["n"] != int64(10) {
		t.Fatalf("seed after txn = %v, %v; want n=10", d, err)
	}
	// The Add→Delete pair within one txn nets out to absence.
	if _, err := c.Get("named"); err == nil {
		t.Fatal("named should have been deleted by the same txn")
	}
	if c.Count() != 2 {
		t.Fatalf("count = %d; want 2 (seed + generated)", c.Count())
	}
}

func TestApplyTxnIsAllOrNothing(t *testing.T) {
	c := NewStore().Collection("peaks")
	if _, err := insertDoc(c, "a", Fields{"n": 1}); err != nil {
		t.Fatal(err)
	}
	// Op 1 is fine, op 2 updates a missing doc: nothing may apply.
	_, err := c.ApplyTxn([]TxnOp{
		{Kind: TxnUpdate, ID: "a", F: Fields{"n": 99}},
		{Kind: TxnUpdate, ID: "ghost", F: Fields{"n": 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "txn op 1") {
		t.Fatalf("err = %v; want failure naming op 1", err)
	}
	if d, _ := c.Get("a"); d.F["n"] != int64(1) {
		t.Fatalf("a.n = %v after failed txn; want untouched 1", d.F["n"])
	}

	// Duplicate Add against an existing doc rolls everything back too.
	_, err = c.ApplyTxn([]TxnOp{
		{Kind: TxnAdd, ID: "b", F: Fields{"n": 2}},
		{Kind: TxnAdd, ID: "a", F: Fields{"n": 3}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate id") {
		t.Fatalf("err = %v; want duplicate id", err)
	}
	if _, gerr := c.Get("b"); gerr == nil {
		t.Fatal("b leaked from a failed txn")
	}
}

func TestApplyTxnValidatesIndexability(t *testing.T) {
	c := NewStore().Collection("peaks")
	if err := c.CreateHashIndex("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := insertDoc(c, "ok", Fields{"t": 1.0}); err != nil {
		t.Fatal(err)
	}
	_, err := c.ApplyTxn([]TxnOp{
		{Kind: TxnAdd, ID: "fine", F: Fields{"t": 2.0}},
		{Kind: TxnAdd, ID: "bad", F: Fields{"t": []float64{3}}},
	})
	if err == nil {
		t.Fatal("unindexable value slipped past a hash index")
	}
	if _, gerr := c.Get("fine"); gerr == nil {
		t.Fatal("fine leaked from a txn rejected by index validation")
	}
	// Index stayed consistent: query still answers.
	ids, err := c.FindIDs(Query{Filters: []Filter{Eq("t", 1)}})
	if err != nil || len(ids) != 1 || ids[0] != "ok" {
		t.Fatalf("index query after failed txn = %v, %v", ids, err)
	}
}

func TestTxnOverWire(t *testing.T) {
	srv, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ids, err := cl.ApplyTxn("peaks", []TxnOp{
		{Kind: TxnAdd, ID: "a", F: Fields{"n": 1}},
		{Kind: TxnAdd, F: Fields{"n": 2}},
		{Kind: TxnUpdate, ID: "a", F: Fields{"n": 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != "a" || ids[1] == "" {
		t.Fatalf("ids = %v", ids)
	}
	d, err := cl.Get("peaks", "a")
	if err != nil || d.F["n"] != int64(10) {
		t.Fatalf("a over wire = %v, %v; want n=10", d, err)
	}

	// Server-side atomicity surfaces as a client error with nothing applied.
	if _, err := cl.ApplyTxn("peaks", []TxnOp{
		{Kind: TxnAdd, ID: "c", F: Fields{"n": 3}},
		{Kind: TxnDelete, ID: "ghost"},
	}); err == nil {
		t.Fatal("txn with a bad op should fail over the wire")
	}
	if _, err := cl.Get("peaks", "c"); err == nil {
		t.Fatal("c leaked from a failed wire txn")
	}

	// publishFit's refit pair, re-sent after a lost reply: the second
	// commit replaces the document with the same fields again.
	if _, err := cl.ApplyTxn("peaks.fit", []TxnOp{{Kind: TxnAdd, ID: "current", F: Fields{"fit": "cafe", "k": 3}}}); err != nil {
		t.Fatal(err)
	}
	refit := []TxnOp{{Kind: TxnDelete, ID: "current"}, {Kind: TxnAdd, ID: "current", F: Fields{"fit": "beef", "k": 2}}}
	for try := 0; try < 2; try++ {
		if _, err := cl.ApplyTxn("peaks.fit", refit); err != nil {
			t.Fatalf("refit try %d: %v", try, err)
		}
	}
	if d, err := cl.Get("peaks.fit", "current"); err != nil || len(d.F) != 2 || d.F["fit"] != "beef" || d.F["k"] != int64(2) {
		t.Fatalf("fit after a re-sent refit = %v, %v; want fit=beef k=2", d, err)
	}
	if n, err := cl.Count("peaks.fit", Query{}); err != nil || n != 1 {
		t.Fatalf("fit collection count = %d, %v; want 1", n, err)
	}

	// A bare Delete re-sent after its first attempt landed cannot tell that
	// attempt from a wrong ID: it fails, naming the ID.
	if _, err := cl.ApplyTxn("peaks", []TxnOp{{Kind: TxnDelete, ID: "a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyTxn("peaks", []TxnOp{{Kind: TxnDelete, ID: "a"}}); err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("re-sent delete of a gone document: err = %v; want one naming \"a\"", err)
	}
	_ = srv
}

// TestRetiredWriteOpsAreUnknown: the wire ops insert (2), insert many (3)
// and update (6) are gone, and nothing took their numbers. A peer built
// when they existed gets "unknown operation" for each, and nothing is
// stored.
func TestRetiredWriteOpsAreUnknown(t *testing.T) {
	srv, addr := startTestServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The request as those peers encoded it, with the fields only the
	// retired ops read.
	type legacyRequest struct {
		Seq        uint64
		Op         reqOp
		Collection string
		ID         string
		IDs        []string
		Fields     Fields
		Batch      []Fields
	}
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	for i, req := range []legacyRequest{
		{Op: 2, Collection: "peaks", ID: "a", Fields: Fields{"n": int64(1)}},
		{Op: 3, Collection: "peaks", IDs: []string{"b", "c"}, Batch: []Fields{{"n": int64(2)}, {"n": int64(3)}}},
		{Op: 6, Collection: "peaks", ID: "a", Fields: Fields{"n": int64(4)}},
	} {
		req.Seq = uint64(i + 1)
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Seq != req.Seq || resp.Err != "docstore: unknown operation" {
			t.Fatalf("op %d: seq %d, err %q; want seq %d, \"docstore: unknown operation\"", req.Op, resp.Seq, resp.Err, req.Seq)
		}
	}
	if names := srv.store.Names(); len(names) != 0 {
		t.Fatalf("store holds collections %v after retired ops; want none", names)
	}
}

// TestTxnSurvivesMidTxnConnectionDrop routes the client through a proxy
// that kills the first connection mid-request: the partial transaction
// must not apply on the server, and the client's retry must land it
// exactly once afterwards.
func TestTxnSurvivesMidTxnConnectionDrop(t *testing.T) {
	srv, addr := startTestServer(t, ServerConfig{})

	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var once sync.Once
	go func() {
		for {
			conn, err := proxy.Accept()
			if err != nil {
				return
			}
			killed := false
			once.Do(func() {
				// Forward half the request bytes, then cut the link: the
				// server sees a truncated gob stream, never a full txn.
				buf := make([]byte, 64)
				n, _ := conn.Read(buf)
				if n > 0 {
					if back, err := net.Dial("tcp", addr); err == nil {
						back.Write(buf[:n/2])
						back.Close()
					}
				}
				conn.Close()
				killed = true
			})
			if killed {
				continue
			}
			back, err := net.Dial("tcp", addr)
			if err != nil {
				conn.Close()
				continue
			}
			go func() { io.Copy(back, conn); back.Close() }()
			go func() { io.Copy(conn, back); conn.Close() }()
		}
	}()

	cl, err := Dial(proxy.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ids, err := cl.ApplyTxn("peaks", []TxnOp{
		{Kind: TxnAdd, ID: "a", F: Fields{"n": 1}},
		{Kind: TxnAdd, ID: "b", F: Fields{"n": 2}},
	})
	if err != nil {
		t.Fatalf("txn through flaky proxy should retry and succeed: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	// Exactly one application: the torn first attempt must not have
	// half-applied (or double-applied after the retry).
	c := srv.store.Collection("peaks")
	if c.Count() != 2 {
		t.Fatalf("server count = %d; want exactly 2", c.Count())
	}
	for _, id := range []string{"a", "b"} {
		if _, err := c.Get(id); err != nil {
			t.Fatalf("doc %s missing after retried txn: %v", id, err)
		}
	}
}

// TestReSentAddLandsOnce: an add naming a document with the same fields
// is a re-sent write. It succeeds, applies nothing and appends no WAL
// record; with other fields it is a conflict and its batch applies
// nothing, in process and over the wire.
func TestReSentAddLandsOnce(t *testing.T) {
	ds := openDurable(t, t.TempDir(), DurableOptions{Policy: wal.SyncAlways})
	defer ds.Close()
	c := ds.Collection("peaks")
	f := Fields{"n": 1, "x": math.NaN(), "v": []float64{math.Copysign(0, -1), 2}, "b": []byte{}, "s": []string{"a"}}
	for try := 0; try < 2; try++ {
		ids, err := c.ApplyTxn([]TxnOp{{Kind: TxnAdd, ID: "a", F: f}, {Kind: TxnAdd, ID: "a", F: f}})
		if err != nil || len(ids) != 2 || ids[0] != "a" || ids[1] != "a" {
			t.Fatalf("try %d: ids = %v, err = %v", try, ids, err)
		}
	}
	if n := ds.WalStats().Appends; n != 1 {
		t.Fatalf("WAL appends = %d; want 1 (re-sent adds log nothing)", n)
	}
	if c.Count() != 1 {
		t.Fatalf("count = %d; want 1", c.Count())
	}

	more := cloneFields(f)
	more["t"] = true
	for _, other := range []Fields{{"n": 2}, {"n": 1.0, "x": math.NaN()}, {}, more} {
		_, err := c.ApplyTxn([]TxnOp{{Kind: TxnAdd, ID: "b", F: Fields{"n": 3}}, {Kind: TxnAdd, ID: "a", F: other}})
		if !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), "duplicate id") {
			t.Fatalf("add of a with %v: err = %v; want a duplicate-id ErrConflict", other, err)
		}
	}
	if _, err := c.Get("b"); err == nil {
		t.Fatal("b leaked from a batch holding a conflict")
	}

	_, addr := startTestServer(t, ServerConfig{})
	cl, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := sendInsert(cl, "peaks", "", Fields{"n": 1})
	if err != nil || id == "" {
		t.Fatalf("insert: id %q, err %v", id, err)
	}
	if again, err := sendInsert(cl, "peaks", id, Fields{"n": 1}); err != nil || again != id {
		t.Fatalf("re-sent insert: id %q, err %v; want %q, nil", again, err, id)
	}
	if _, err := sendInsert(cl, "peaks", id, Fields{"n": 2}); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting insert over the wire: err = %v; want ErrConflict", err)
	}
	ids, err := sendInsertMany(cl, "peaks", []Fields{{"n": 1}, {"n": 1}})
	if err != nil || len(ids) != 2 || ids[0] == ids[1] || ids[0] == id {
		t.Fatalf("InsertMany ids = %v, err %v; want two new distinct ids", ids, err)
	}
	if n, err := cl.Count("peaks", Query{}); err != nil || n != 3 {
		t.Fatalf("count over the wire = %d, %v; want 3", n, err)
	}
}
