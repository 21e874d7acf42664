package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSample(rng *rand.Rand, dt Dtype, shape []int) *Sample {
	n := 1
	for _, d := range shape {
		n *= d
	}
	vals := make([]float64, n)
	for i := range vals {
		switch dt {
		case U8:
			vals[i] = float64(rng.Intn(256))
		case U16:
			vals[i] = float64(rng.Intn(65536))
		default:
			vals[i] = rng.NormFloat64() * 100
		}
	}
	return SampleFromFloats(vals, shape, dt, []float64{rng.Float64(), rng.Float64()})
}

func codecsUnderTest() []Codec {
	return []Codec{Raw{}, Gob{}, Block{}, Block{BlockSize: 128, Level: 6}}
}

func TestRoundTripAllCodecsAllDtypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []Dtype{U8, U16, F32, F64} {
		for _, c := range codecsUnderTest() {
			s := randomSample(rng, dt, []int{4, 5})
			enc, err := c.Encode(s)
			if err != nil {
				t.Fatalf("%s/%s encode: %v", c.Name(), dt, err)
			}
			dec, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s/%s decode: %v", c.Name(), dt, err)
			}
			if !bytes.Equal(dec.Data, s.Data) {
				t.Fatalf("%s/%s payload mismatch", c.Name(), dt)
			}
			if len(dec.Shape) != 2 || dec.Shape[0] != 4 || dec.Shape[1] != 5 {
				t.Fatalf("%s/%s shape = %v", c.Name(), dt, dec.Shape)
			}
			if dec.Dtype != dt {
				t.Fatalf("%s/%s dtype = %v", c.Name(), dt, dec.Dtype)
			}
			for i := range s.Label {
				if dec.Label[i] != s.Label[i] {
					t.Fatalf("%s/%s label mismatch", c.Name(), dt)
				}
			}
		}
	}
}

func TestFloatsRoundTrip(t *testing.T) {
	vals := []float64{0, 1, 127, 255}
	s := SampleFromFloats(vals, []int{4}, U8, nil)
	got := s.Floats()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("Floats = %v, want %v", got, vals)
		}
	}
	// Float32 path preserves values representable in float32.
	f := SampleFromFloats([]float64{1.5, -2.25}, []int{2}, F32, nil)
	g := f.Floats()
	if g[0] != 1.5 || g[1] != -2.25 {
		t.Fatalf("F32 Floats = %v", g)
	}
}

// TestFloatsIntoWritesEveryElement: collating into a pooled buffer relies
// on FloatsInto writing all Elems() values whatever dst held — zeros for a
// dtype it cannot decode, as a fresh slice would have read.
func TestFloatsIntoWritesEveryElement(t *testing.T) {
	for _, dt := range []Dtype{U8, U16, F32, F64, 0, 9} {
		s := &Sample{Shape: []int{2, 2}, Dtype: dt, Data: make([]byte, 32)}
		dst := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), 7}
		s.FloatsInto(dst)
		if dst[0] != 0 || dst[1] != 0 || dst[2] != 0 || dst[3] != 0 || dst[4] != 7 {
			t.Fatalf("dtype %v: FloatsInto left %v, want four zeros and the 7 past Elems()", dt, dst)
		}
	}
}

func TestSampleFromFloatsClamps(t *testing.T) {
	s := SampleFromFloats([]float64{-10, 300}, []int{2}, U8, nil)
	f := s.Floats()
	if f[0] != 0 || f[1] != 255 {
		t.Fatalf("clamped = %v, want [0 255]", f)
	}
}

func TestValidateCatchesBadPayload(t *testing.T) {
	s := &Sample{Shape: []int{4}, Dtype: U16, Data: make([]byte, 3)}
	if err := s.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestDecodeGarbageFails(t *testing.T) {
	// huge is a 4 MiB Block frame claiming a 64 GiB u8 payload in 2^20
	// empty compressed blocks: it passes the shape, length and table-size
	// checks and must fail before the payload is allocated.
	const rawLen, nblocks = 1 << 36, 1 << 20 // 64 KiB blocks
	huge := []byte{rawMagic, byte(U8), 1}
	huge = binary.LittleEndian.AppendUint64(huge, rawLen)
	huge = append(huge, 0, 0) // no label
	huge = binary.LittleEndian.AppendUint64(huge, rawLen)
	huge = binary.LittleEndian.AppendUint32(huge, nblocks)
	huge = append(huge, make([]byte, 4*nblocks)...)
	for name, b := range map[string][]byte{"three bytes": {1, 2, 3}, "64 GiB claim": huge} {
		for _, c := range codecsUnderTest() {
			if _, err := c.Decode(b); err == nil {
				t.Fatalf("%s: %s decoded garbage without error", name, c.Name())
			}
		}
	}
}

func TestDecodeTruncatedBlockFails(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSample(rng, U16, []int{64, 64})
	enc, err := Block{}.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Block{}).Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("expected error decoding truncated frame")
	}
}

func TestBlockCompressesLowEntropyData(t *testing.T) {
	// Detector-like data: 16-bit values with small dynamic range should
	// compress well after byte shuffling.
	n := 128 * 128
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = float64(100 + rng.Intn(40))
	}
	s := SampleFromFloats(vals, []int{128, 128}, U16, nil)
	enc, err := Block{}.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(s.Data) {
		t.Fatalf("blosc output %d bytes >= raw %d bytes on compressible data", len(enc), len(s.Data))
	}
}

func TestShuffleUnshuffleInverse(t *testing.T) {
	f := func(data []byte, widthSeed uint8) bool {
		width := int(widthSeed%8) + 1
		sh := make([]byte, len(data))
		shuffleBytesInto(sh, data, width)
		out := make([]byte, len(sh))
		unshuffleInto(out, sh, width)
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleGroupsHighBytes(t *testing.T) {
	// u16 values < 256 have zero high bytes; after shuffling, the second
	// half of the buffer must be all zeros.
	data := make([]byte, 8)
	for i := 0; i < 4; i++ {
		data[2*i] = byte(i + 1) // low byte
		data[2*i+1] = 0         // high byte
	}
	sh := make([]byte, len(data))
	shuffleBytesInto(sh, data, 2)
	for i := 4; i < 8; i++ {
		if sh[i] != 0 {
			t.Fatalf("shuffled = %v, high bytes not grouped", sh)
		}
	}
	for i := 0; i < 4; i++ {
		if sh[i] != byte(i+1) {
			t.Fatalf("shuffled = %v, low bytes not grouped", sh)
		}
	}
}

// Property: round trip through every codec preserves payload exactly.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(dtSeed uint8, dimA, dimB uint8) bool {
		dts := []Dtype{U8, U16, F32, F64}
		dt := dts[int(dtSeed)%len(dts)]
		a, b := int(dimA%8)+1, int(dimB%8)+1
		s := randomSample(rng, dt, []int{a, b})
		for _, c := range codecsUnderTest() {
			enc, err := c.Encode(s)
			if err != nil {
				return false
			}
			dec, err := c.Decode(enc)
			if err != nil {
				return false
			}
			if !bytes.Equal(dec.Data, s.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDtypeSizes(t *testing.T) {
	if U8.Size() != 1 || U16.Size() != 2 || F32.Size() != 4 || F64.Size() != 8 {
		t.Fatal("dtype sizes wrong")
	}
	if U8.String() != "u8" || F64.String() != "f64" {
		t.Fatal("dtype names wrong")
	}
}

func TestF64PayloadExact(t *testing.T) {
	vals := []float64{math.Pi, -math.E, 0, math.MaxFloat64}
	s := SampleFromFloats(vals, []int{4}, F64, nil)
	got := s.Floats()
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("F64 round trip lost precision: %v vs %v", got, vals)
		}
	}
}

func TestBlockStoredFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	// Sub-MinCompress payloads skip DEFLATE and are stored shuffled-raw:
	// output is the frame header plus exactly the raw bytes, and the
	// round trip is lossless.
	small := randomSample(rng, F32, []int{11, 11})
	enc, err := Block{}.Encode(small)
	if err != nil {
		t.Fatal(err)
	}
	overhead := len(enc) - len(small.Data)
	if overhead <= 0 || overhead > 64 {
		t.Fatalf("stored small payload: %d bytes for %d raw (want raw + small header)", len(enc), len(small.Data))
	}
	back, err := Block{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, small.Data) {
		t.Fatal("stored-block round trip corrupted payload")
	}

	// Incompressible data above MinCompress: the compression attempt runs
	// but its larger output is discarded for the raw block, so the frame
	// never expands beyond header overhead.
	big := randomSample(rng, F64, []int{64, 64}) // random float64s do not compress
	enc, err = Block{}.Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) > len(big.Data)+64 {
		t.Fatalf("incompressible payload expanded: %d bytes for %d raw", len(enc), len(big.Data))
	}
	back, err = Block{}.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, big.Data) {
		t.Fatal("incompressible round trip corrupted payload")
	}

	// MinCompress < 0 forces the DEFLATE attempt even on tiny payloads —
	// the compatibility knob for data that is small but redundant — and
	// both configurations must decode each other's frames (the stored
	// flag travels in the size table).
	flat := SampleFromFloats(make([]float64, 121), []int{11, 11}, U16, nil)
	forced, err := Block{MinCompress: -1}.Encode(flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(forced) >= len(flat.Data) {
		t.Fatalf("forced compression of all-zero payload did not shrink: %d vs %d", len(forced), len(flat.Data))
	}
	back, err = Block{}.Decode(forced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, flat.Data) {
		t.Fatal("cross-config round trip corrupted payload")
	}
}
