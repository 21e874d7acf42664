package wal

import (
	"bytes"
	"testing"
)

// FuzzScanSegment feeds arbitrary segment and checkpoint images to the
// frame scanner (seed corpus in testdata/fuzz/FuzzScanSegment). Whatever
// the bytes, it must not panic, must keep a prefix of the input, and the
// prefix it keeps must be clean: scanning it again yields the same
// records and counts no damage — which is what makes truncating a torn
// log tail at keep a fixed point instead of a loop.
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var first Log
		recs, keep := first.scanSegment(data)
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep = %d of %d bytes", keep, len(data))
		}
		var second Log
		again, keepAgain := second.scanSegment(data[:keep])
		if keepAgain != keep || len(again) != len(recs) {
			t.Fatalf("rescan of the kept prefix: %d records to byte %d; first scan %d to %d",
				len(again), keepAgain, len(recs), keep)
		}
		for i := range recs {
			if again[i].LSN != recs[i].LSN || !bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("record %d changed on rescan", i)
			}
		}
		if st := second.Stats(); st.TornTruncations+st.CorruptRecords != 0 {
			t.Fatalf("kept prefix still counts damage: %+v", st)
		}
	})
}
