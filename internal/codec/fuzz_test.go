package codec

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzBlockDecode feeds arbitrary frames to the Block and Raw decoders
// (seed corpus in testdata/fuzz/FuzzBlockDecode: frames with a label
// count past the end, more blocks than the payload needs, a payload
// length with bit 63 set, an unknown dtype, and an 89-byte frame that
// claims a 1 MiB payload). Whatever the bytes, a decoder returns an error
// or a sample that passes Validate, and a sample it accepts survives its
// re-encode and decode unchanged.
func FuzzBlockDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, dt := range []Dtype{U8, U16, F32, F64} {
		s := randomSample(rng, dt, []int{3, 4})
		for _, c := range []Codec{Raw{}, Block{}, Block{MinCompress: -1}} {
			enc, err := c.Encode(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Codec{Block{}, Raw{}} {
			s, err := c.Decode(data)
			if err != nil {
				continue
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s accepted a sample that fails Validate: %v", c.Name(), err)
			}
			enc, err := c.Encode(s)
			if err != nil {
				t.Fatalf("%s cannot re-encode the sample it decoded: %v", c.Name(), err)
			}
			back, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s cannot decode its own re-encode: %v", c.Name(), err)
			}
			if !sameSample(s, back) {
				t.Fatalf("%s round trip changed the sample: %+v -> %+v", c.Name(), s, back)
			}
		}
	})
}

// sameSample compares two samples bit for bit (a NaN label equals itself).
func sameSample(a, b *Sample) bool {
	if a.Dtype != b.Dtype || !slices.Equal(a.Shape, b.Shape) || !bytes.Equal(a.Data, b.Data) || len(a.Label) != len(b.Label) {
		return false
	}
	for i := range a.Label {
		if math.Float64bits(a.Label[i]) != math.Float64bits(b.Label[i]) {
			return false
		}
	}
	return true
}
