package docstore

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

func TestApplyTxnAllOps(t *testing.T) {
	c := NewStore().Collection("peaks")
	if _, err := c.Insert("seed", Fields{"n": 0}); err != nil {
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
	if _, err := c.Insert("a", Fields{"n": 1}); err != nil {
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
	if _, err := c.Insert("ok", Fields{"t": 1.0}); err != nil {
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
	_ = srv
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
