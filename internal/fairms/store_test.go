package fairms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairdms/internal/docstore"
	"fairdms/internal/nn"
	"fairdms/internal/stats"
	"fairdms/internal/wal"
)

// openStore opens (or reopens) a WAL-durable store in dir and returns it
// with the collection the tests keep their zoo in.
func openStore(t *testing.T, dir string) (*docstore.DurableStore, *docstore.Collection) {
	t.Helper()
	ds, err := docstore.OpenDurable(docstore.DurableOptions{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds, ds.Collection("peaks.zoo")
}

func openZoo(t *testing.T, store Store) *Zoo {
	t.Helper()
	z, err := OpenZoo(store)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// sameRecord reports a record field that differs between a and b.
func sameRecord(a, b *Record) string {
	switch {
	case a.ID != b.ID:
		return "ID"
	case !reflect.DeepEqual(a.State, b.State):
		return "State"
	case !reflect.DeepEqual(a.TrainPDF, b.TrainPDF):
		return "TrainPDF"
	case !reflect.DeepEqual(a.Meta, b.Meta):
		return "Meta"
	case !a.AddedAt.Equal(b.AddedAt):
		return "AddedAt"
	}
	return ""
}

// TestSaveLoadRoundTrip: what Add saves, OpenZoo loads. A zoo over a
// durable store comes back from the directory alone — after a crash (no
// clean close, no compaction) and again after a compaction — with every
// record whole and in insertion order, and keeps numbering where it left
// off.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, col := openStore(t, dir)
	z := openZoo(t, col)
	// Insertion order is not ID order.
	z.Add("m2", dummyState(2), stats.PDF{0.5, 0.5}, nil)
	z.Add("m1", dummyState(1), stats.PDF{0.25, 0.75}, map[string]string{"ds": "scan-5", MetaFit: "f00d"})
	ds.Abort()

	ds, col = openStore(t, dir)
	z2 := openZoo(t, col)
	if got := z2.IDs(); !reflect.DeepEqual(got, []string{"m2", "m1"}) {
		t.Fatalf("order lost across the crash: %v", got)
	}
	for _, id := range z.IDs() {
		want, _ := z.Get(id)
		got, err := z2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if f := sameRecord(want, got); f != "" {
			t.Fatalf("record %s: %s changed across the crash:\n got  %+v\n want %+v", id, f, got, want)
		}
	}
	r, _ := z2.Get("m1")
	if r.Fit() != "f00d" || r.Meta["ds"] != "scan-5" {
		t.Fatalf("meta = %v", r.Meta)
	}
	// Weights survive the round trip: load them into a model.
	m := nn.Sequential(nn.NewLinear(rand.New(rand.NewSource(9)), 2, 2))
	if err := m.LoadState(r.State); err != nil {
		t.Fatal(err)
	}

	if err := z2.Add("m0", dummyState(3), stats.PDF{1, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	ds.Close()
	_, col = openStore(t, dir)
	if got := openZoo(t, col).IDs(); !reflect.DeepEqual(got, []string{"m2", "m1", "m0"}) {
		t.Fatalf("order from the checkpoint: %v", got)
	}
}

// TestLoadRejectsInvalidRecords: a model document without weights, with an
// invalid PDF or with an undecodable state fails OpenZoo with an error
// naming it, and the directory is left byte-for-byte as found.
func TestLoadRejectsInvalidRecords(t *testing.T) {
	good, err := modelDoc(&Record{State: dummyState(1), TrainPDF: stats.PDF{0.5, 0.5}, AddedAt: time.Now()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	with := func(k string, v any) docstore.Fields {
		f := docstore.Fields{}
		for gk, gv := range good {
			f[gk] = gv
		}
		f[k] = v
		return f
	}
	for name, f := range map[string]docstore.Fields{
		"no-weights":  with("state", []byte(nil)),
		"bad-weights": with("state", []byte("not a gob stream")),
		"bad-pdf":     with("pdf", []float64{0.9, 0.9}),
		"no-pdf":      with("pdf", nil),
		"odd-meta":    with("meta", []string{"key-without-value"}),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ds, col := openStore(t, dir)
			if err := openZoo(t, col).Add("fine", dummyState(2), stats.PDF{1}, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := col.ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnAdd, ID: name, F: f}}); err != nil {
				t.Fatal(err)
			}
			ds.Close()

			// Opening the store itself may start a segment; what must not
			// write is the refused OpenZoo.
			ds, col = openStore(t, dir)
			before := dirContents(t, dir)
			_, err := OpenZoo(col)
			if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
				t.Fatalf("OpenZoo = %v; want an error naming document %q", err, name)
			}
			ds.Abort()
			if after := dirContents(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatal("a refused open changed the directory")
			}
		})
	}
}

// dirContents reads every file of dir.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// failingStore fails every commit while broken is set.
type failingStore struct {
	Store
	broken bool
}

func (s *failingStore) ApplyTxn(ops []docstore.TxnOp) ([]string, error) {
	if s.broken {
		return nil, errors.New("disk on fire")
	}
	return s.Store.ApplyTxn(ops)
}

// TestSaveFailureLeavesOriginal: the model document is committed before the
// record is published, so a failed write is an ErrStore and leaves the zoo
// as it was — the id neither in memory nor in the store — and the same Add
// succeeds once the store works again.
func TestSaveFailureLeavesOriginal(t *testing.T) {
	col := docstore.NewStore().Collection("peaks.zoo")
	store := &failingStore{Store: col, broken: true}
	z := openZoo(t, store)
	err := z.Add("m", dummyState(1), stats.PDF{0.5, 0.5}, nil)
	if !errors.Is(err, ErrStore) || errors.Is(err, ErrDuplicateID) {
		t.Fatalf("Add over a failing store = %v; want ErrStore", err)
	}
	if _, err := z.Get("m"); err == nil || z.Len() != 0 || col.Count() != 0 {
		t.Fatalf("a failed Add left something behind: zoo %d, store %d", z.Len(), col.Count())
	}
	store.broken = false
	if err := z.Add("m", dummyState(1), stats.PDF{0.5, 0.5}, nil); err != nil {
		t.Fatalf("retry after the fault cleared: %v", err)
	}
	if z.Len() != 1 || openZoo(t, col).Len() != 1 {
		t.Fatal("the retried model is not in both the zoo and the store")
	}
}

// FuzzOpenZoo writes up to four arbitrary model documents into an
// in-memory collection (seed corpus in testdata/fuzz/FuzzOpenZoo) and
// opens a zoo over it. Document i (of n) has ID "m<n-i>" and seq
// seq+step·(i mod 3), so seqs tie, rise and fall against ID order; omit
// drops fields from every document (bit 0 state, 1 pdf, 2 meta, 3 fit,
// 4 added_at, 5 seq). pdf is read as little-endian float64s and meta as
// newline-separated strings, so an odd count of them is reachable.
// OpenZoo returns an error or a zoo holding every document in (seq, ID)
// order, and never panics.
func FuzzOpenZoo(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, omit uint8, state, pdf []byte, meta, fit string, seq int64, step int8, addedAt int64) {
		n %= 5
		var pdfVals []float64
		for b := pdf; len(b) >= 8; b = b[8:] {
			pdfVals = append(pdfVals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		var metaVals []string
		if meta != "" {
			metaVals = strings.Split(meta, "\n")
		}
		col := docstore.NewStore().Collection("peaks.zoo")
		seqOf := make(map[string]int64, n)
		for i := 0; i < int(n); i++ {
			id := fmt.Sprintf("m%d", int(n)-i)
			docSeq := seq + int64(step)*int64(i%3)
			all := docstore.Fields{
				"state": state, "pdf": pdfVals, "meta": metaVals,
				"fit": fit, "added_at": addedAt, "seq": docSeq,
			}
			fields := docstore.Fields{}
			for bit, name := range []string{"state", "pdf", "meta", "fit", "added_at", "seq"} {
				if omit&(1<<bit) == 0 {
					fields[name] = all[name]
				}
			}
			if _, ok := fields["seq"]; !ok {
				docSeq = 0
			}
			if _, err := col.ApplyTxn([]docstore.TxnOp{{Kind: docstore.TxnAdd, ID: id, F: fields}}); err != nil {
				t.Fatal(err)
			}
			seqOf[id] = docSeq
		}
		z, err := OpenZoo(col)
		if err != nil {
			return
		}
		ids := z.IDs()
		if z.Len() != int(n) || len(ids) != int(n) {
			t.Fatalf("opened %d documents as a zoo of %d (%d ids)", n, z.Len(), len(ids))
		}
		for i := 1; i < len(ids); i++ {
			a, b := ids[i-1], ids[i]
			if seqOf[a] > seqOf[b] || (seqOf[a] == seqOf[b] && a >= b) {
				t.Fatalf("zoo order %v: %s (seq %d) before %s (seq %d)", ids, a, seqOf[a], b, seqOf[b])
			}
		}
	})
}
