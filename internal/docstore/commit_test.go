package docstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"fairdms/internal/codec"
	"fairdms/internal/datagen"
	"fairdms/internal/wal"
)

// ingestCommit256 is the commit one 256-document ingest batch of dmsd
// logs: per document a Block-coded 11×11 Bragg patch, its cluster, an
// 8-dimensional embedding and the dataset tag, under generated IDs.
func ingestCommit256(tb testing.TB) *walCommit {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	regime := datagen.DefaultBraggRegime()
	regime.Patch = 11
	rec := &walCommit{Collection: "fairds", NextID: 256}
	for i, smp := range regime.Generate(rng, 256) {
		payload, err := codec.Block{}.Encode(smp)
		if err != nil {
			tb.Fatal(err)
		}
		emb := make([]float64, 8)
		for j := range emb {
			emb[j] = 2*rng.Float64() - 1
		}
		rec.Ops = append(rec.Ops, TxnOp{Kind: TxnAdd, ID: fmt.Sprintf("fairds-%08d", i+1), F: Fields{
			"payload": payload, "cluster": int64(i % 8), "embedding": emb, "dataset": "stream",
		}})
	}
	return rec
}

// everyTag is one op per field tag, one field each, so the encoding's
// byte order does not depend on map order.
func everyTag() *walCommit {
	return &walCommit{Collection: "peaks", NextID: 9, Ops: []TxnOp{
		{Kind: TxnAdd, ID: "nil", F: Fields{"v": nil}},
		{Kind: TxnAdd, ID: "string", F: Fields{"v": "bragg"}},
		{Kind: TxnAdd, ID: "int64", F: Fields{"v": int64(math.MinInt64)}},
		{Kind: TxnAdd, ID: "float64", F: Fields{"v": math.Copysign(0, -1)}},
		{Kind: TxnAdd, ID: "bool", F: Fields{"v": true}},
		{Kind: TxnAdd, ID: "bytes", F: Fields{"v": []byte{0, 1, 0xff}}},
		{Kind: TxnAdd, ID: "float64s", F: Fields{"v": []float64{math.NaN(), math.Inf(-1), 1.5}}},
		{Kind: TxnAdd, ID: "strings", F: Fields{"v": []string{"", "a", "bc"}}},
		{Kind: TxnDelete, ID: "gone"},
		{Kind: txnCreateHashIndex, ID: "cluster"},
	}}
}

func mustEncode(tb testing.TB, rec *walCommit) []byte {
	tb.Helper()
	b, err := encodeCommit(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// sameCommit reports whether two commits are equal, floats bit for bit.
func sameCommit(a, b walCommit) bool {
	if a.Collection != b.Collection || a.NextID != b.NextID || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i, x := range a.Ops {
		y := b.Ops[i]
		if x.Kind != y.Kind || x.ID != y.ID || (x.F == nil) != (y.F == nil) || !sameFields(x.F, y.F) {
			return false
		}
	}
	return true
}

func TestCommitRoundTrip(t *testing.T) {
	for _, rec := range []*walCommit{everyTag(), ingestCommit256(t), {Collection: "empty"}} {
		b := mustEncode(t, rec)
		if b[0] != commitMagic {
			t.Fatalf("record starts with %#x; want the magic %#x", b[0], commitMagic)
		}
		got, err := decodeCommit(b)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCommit(*rec, got) {
			t.Fatalf("%s: decoded %+v; want %+v", rec.Collection, got, *rec)
		}
	}
}

func TestEncodeCommitRefusesUnnormalizedValues(t *testing.T) {
	rec := &walCommit{Collection: "peaks", Ops: []TxnOp{{Kind: TxnAdd, ID: "a", F: Fields{"n": 3}}}}
	if _, err := encodeCommit(rec); err == nil {
		t.Fatal("encoded an int field; want an error naming it")
	}
}

// TestDecodeCommitRefusesDamage: each kind of damage the decoder checks
// for is refused, not read as something else.
func TestDecodeCommitRefusesDamage(t *testing.T) {
	whole := mustEncode(t, everyTag())
	for name, b := range fuzzSeeds(t) {
		if name == "whole" || strings.HasPrefix(name, "tag-") {
			continue
		}
		if _, err := decodeBinaryCommit(b); err == nil {
			t.Errorf("%s: decoded; want an error", name)
		}
	}
	twice := mustEncode(t, &walCommit{Collection: "c", Ops: []TxnOp{{Kind: TxnAdd, ID: "a", F: Fields{"k": true}}}})
	twice[len(twice)-5]++ // the field count: 1 → 2
	twice = append(twice, 1, 'k', tagNil)
	if _, err := decodeBinaryCommit(twice); err == nil {
		t.Error("decoded a field named twice; want an error")
	}
	if _, err := decodeBinaryCommit(whole); err != nil {
		t.Fatalf("whole record: %v", err)
	}
}

// fuzzSeeds are FuzzDecodeCommit's seeds, by name: the record of every
// tag whole, one record per tag, that record cut at each op and field
// boundary, a count of MaxUint64, an unknown tag and a trailing byte.
func fuzzSeeds(tb testing.TB) map[string][]byte {
	rec := everyTag()
	whole := mustEncode(tb, rec)
	seeds := map[string][]byte{"whole": whole}
	empty := len(mustEncode(tb, &walCommit{Collection: rec.Collection, NextID: rec.NextID}))
	at := empty // where op i starts in whole: ops encode one after another
	for i, op := range rec.Ops {
		one := mustEncode(tb, &walCommit{Collection: rec.Collection, NextID: rec.NextID, Ops: []TxnOp{op}})
		seeds["tag-"+op.ID] = one
		seeds[fmt.Sprintf("cut-op-%d", i)] = whole[:at]
		if len(op.F) > 0 {
			field := at + 1 + strSize(op.ID) + 1 // after kind, ID and field count
			seeds[fmt.Sprintf("cut-field-%d", i)] = whole[:field]
			seeds[fmt.Sprintf("cut-value-%d", i)] = whole[:field+3] // after key "v" and its tag
		}
		at += len(one) - empty
	}
	huge := binary.AppendUvarint([]byte{commitMagic, 1, 'c', 0}, math.MaxUint64)
	seeds["ops-maxuint64"] = huge
	floats := mustEncode(tb, &walCommit{Collection: "c", Ops: []TxnOp{{Kind: TxnAdd, ID: "a", F: Fields{"v": []float64{1}}}}})
	seeds["floats-maxuint64"] = binary.AppendUvarint(floats[:len(floats)-9], math.MaxUint64)
	badTag := bytes.Clone(seeds["tag-nil"])
	badTag[len(badTag)-1] = tagStrings + 1
	seeds["bad-tag"] = badTag
	seeds["trailing-byte"] = append(bytes.Clone(whole), 0)
	return seeds
}

// FuzzDecodeCommit: the binary commit decoder never panics, and any
// record it accepts re-encodes to one that decodes to the same commit,
// bit for bit (NaN payloads and -0 included).
func FuzzDecodeCommit(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || data[0] != commitMagic {
			return
		}
		c, err := decodeBinaryCommit(data)
		if err != nil {
			return
		}
		again, err := encodeCommit(&c)
		if err != nil {
			t.Fatalf("re-encoding an accepted record: %v", err)
		}
		c2, err := decodeBinaryCommit(again)
		if err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
		if !sameCommit(c, c2) {
			t.Fatalf("round trip changed the commit:\n%+v\n%+v", c, c2)
		}
	})
}

// raceEnabled reports whether the test binary was built with -race, under
// which allocation counts mean nothing.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestEncodeCommitAllocations pins a 256-document commit's encode at one
// allocation, the sized record itself; gob took 2,101.
func TestEncodeCommitAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rec := ingestCommit256(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := encodeCommit(rec); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 1 + 1
	if allocs > ceiling {
		t.Fatalf("encoding a 256-document commit makes %.0f allocations, want at most %d", allocs, ceiling)
	}
}

func BenchmarkEncodeCommit256(b *testing.B) {
	rec := ingestCommit256(b)
	b.SetBytes(int64(len(mustEncode(b, rec))))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := encodeCommit(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeCommit256(b *testing.B) {
	p := mustEncode(b, ingestCommit256(b))
	b.SetBytes(int64(len(p)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeCommit(p); err != nil {
			b.Fatal(err)
		}
	}
}

// gobCommit encodes rec as builds before the binary record did.
func gobCommit(t *testing.T, rec walCommit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobLogsStillReplay: a directory an older build logged in gob, with
// binary records appended after an upgrade, reopens to the state its
// writes made. Replay counts as it always has, and the next Compact
// leaves every record in the binary layout.
func TestGobLogsStillReplay(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	every := Fields{
		"nil": nil, "s": "bragg", "i": int64(-7), "f": math.NaN(), "z": math.Copysign(0, -1),
		"b": true, "raw": []byte{1, 2, 3}, "emb": []float64{0.5, -1}, "tags": []string{"x", "y"},
	}
	logGob := func(rec walCommit) {
		t.Helper()
		if _, err := ds.log.Append(gobCommit(t, rec)); err != nil {
			t.Fatal(err)
		}
	}
	c := ds.Collection("peaks")
	if _, err := insertDoc(c, "new-a", Fields{"k": 1}); err != nil {
		t.Fatal(err)
	}
	logGob(walCommit{Collection: "peaks", NextID: 3, Ops: []TxnOp{
		{Kind: TxnAdd, ID: "old-a", F: every},
		{Kind: TxnAdd, ID: "old-b", F: Fields{"k": int64(2)}},
	}})
	logGob(walCommit{Collection: "peaks", NextID: 3, Ops: []TxnOp{{Kind: TxnUpdate, ID: "new-a", F: Fields{"k": int64(5), "s": "up"}}}})
	logGob(walCommit{Collection: "peaks", NextID: 3, Ops: []TxnOp{{Kind: TxnDelete, ID: "old-b"}}})
	logGob(walCommit{Collection: "peaks", NextID: 3, Ops: []TxnOp{{Kind: txnCreateHashIndex, ID: "k"}}})
	logGob(walCommit{Collection: "peaks", NextID: 3, Ops: []TxnOp{{Kind: 9, ID: "x"}}})
	if _, err := insertDoc(c, "new-b", Fields{"k": 5, "f": 2.5}); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	want := map[string]Fields{
		"new-a": {"k": int64(5), "s": "up"},
		"old-a": every,
		"new-b": {"k": int64(5), "f": 2.5},
	}
	check := func(ds *DurableStore) {
		t.Helper()
		c := ds.Collection("peaks")
		if c.Count() != len(want) {
			t.Fatalf("count = %d; want %d", c.Count(), len(want))
		}
		for id, f := range want {
			d, err := c.Get(id)
			if err != nil || !sameFields(d.F, f) {
				t.Fatalf("%s = %v, %v; want %v", id, d, err, f)
			}
		}
		if idx := c.Indexes(); len(idx) != 1 || idx[0] != "k" {
			t.Fatalf("indexes = %v; want [k]", idx)
		}
		if ids, err := c.FindIDs(Query{Filters: []Filter{Eq("k", 5)}}); err != nil || !equalIDs(ids, []string{"new-a", "new-b"}) {
			t.Fatalf("Eq(k,5) = %v, %v; want [new-a new-b]", ids, err)
		}
		if next := c.nextID.Load(); next < 3 {
			t.Fatalf("ID sequence at %d; want at least the logged NextID 3", next)
		}
	}

	ds = openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	// Seven records, each one txn; only the unknown kind is skipped.
	if st := ds.WalStats(); st.ReplayedRecords != 7 || st.ReplayedTxns != 7 || st.ReplaySkippedOps != 1 {
		t.Fatalf("replayed %d records, %d txns, skipped %d ops; want 7, 7, 1",
			st.ReplayedRecords, st.ReplayedTxns, st.ReplaySkippedOps)
	}
	check(ds)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	ds.Close()

	lg, records, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range records {
		if len(r.Payload) == 0 || r.Payload[0] != commitMagic {
			t.Errorf("record %d after Compact is not a binary commit", i)
		}
	}
	lg.Close()
	ds = openDurable(t, dir, DurableOptions{Policy: wal.SyncAlways})
	defer ds.Close()
	if st := ds.WalStats(); st.ReplaySkippedOps != 0 {
		t.Fatalf("skipped %d ops after Compact; want 0", st.ReplaySkippedOps)
	}
	check(ds)
}
