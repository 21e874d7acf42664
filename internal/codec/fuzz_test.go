package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzBlockDecode feeds arbitrary frames to the Block, Raw and Gob
// decoders, alone and through a Batch, which must agree (seed corpus in testdata/fuzz/FuzzBlockDecode: frames with a
// label count past the end, more blocks than the payload needs, a payload
// length with bit 63 set, an unknown dtype, an 89-byte frame that claims
// a 1 MiB payload, and gob streams with dtype 9 and with one value for a
// four-element u16 shape). Whatever the bytes, a decoder returns an error
// or a sample that passes Validate, and a sample it accepts survives its
// re-encode and decode unchanged. A payload Block accepts is also the
// byte-at-a-time unshuffle of its frame's blocks (blockPayload). Two more
// seeds run Block's two decode paths: a 15×15 f32 patch, one stored block
// unshuffled in one pass, and a 200×100 f32 sample, two blocks.
func FuzzBlockDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, dt := range []Dtype{U8, U16, F32, F64} {
		s := randomSample(rng, dt, []int{3, 4})
		for _, c := range []Codec{Raw{}, Block{}, Block{MinCompress: -1}, Gob{}} {
			enc, err := c.Encode(s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	for _, shape := range [][]int{{15, 15}, {200, 100}} {
		enc, err := Block{}.Encode(randomSample(rng, F32, shape))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []Codec{Block{}, Raw{}, Gob{}} {
			s, err := c.Decode(data)
			if got, gotErr := NewBatch(c, [][]byte{data}).Decode(0); !sameResult(got, gotErr, s, err) {
				t.Fatalf("%s: a Batch decodes the frame to %+v, %v; Decode to %+v, %v", c.Name(), got, gotErr, s, err)
			}
			if err != nil {
				continue
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s accepted a sample that fails Validate: %v", c.Name(), err)
			}
			if _, ok := c.(Block); ok {
				if want := blockPayload(t, data, s); !bytes.Equal(s.Data, want) {
					t.Fatalf("blosc decoded a %d-byte payload that is not its blocks' unshuffle", len(s.Data))
				}
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

// sameResult reports whether two decodes agree: the same error text, or no
// error and the same sample.
func sameResult(a *Sample, aErr error, b *Sample, bErr error) bool {
	if aErr != nil || bErr != nil {
		return aErr != nil && bErr != nil && aErr.Error() == bErr.Error()
	}
	return sameSample(a, b)
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

// blockPayload is the payload a Block frame carries, spelled out from the
// frame Decode accepted as s: past the header s implies, the raw length, the
// block count and table, then each block, stored or inflated, concatenated
// and unshuffled a byte at a time.
func blockPayload(t *testing.T, frame []byte, s *Sample) []byte {
	t.Helper()
	off := 3 + 8*len(s.Shape) + 2 + 8*len(s.Label) + 8
	nblocks := int(binary.LittleEndian.Uint32(frame[off:]))
	off += 4
	body := off + 4*nblocks
	var shuffled []byte
	for i := 0; i < nblocks; i++ {
		entry := binary.LittleEndian.Uint32(frame[off+4*i:])
		blk := frame[body : body+int(entry&^storedFlag)]
		body += len(blk)
		if entry&storedFlag == 0 {
			raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(blk)))
			if err != nil {
				t.Fatalf("block %d does not inflate: %v", i, err)
			}
			blk = raw
		}
		shuffled = append(shuffled, blk...)
	}
	width := s.Dtype.Size()
	n := len(shuffled) / width
	out := make([]byte, len(shuffled))
	for k := 0; k < width; k++ {
		for i := 0; i < n; i++ {
			out[i*width+k] = shuffled[k*n+i]
		}
	}
	copy(out[n*width:], shuffled[n*width:])
	return out
}
