package codec

import (
	"math/rand"
	"testing"
)

// benchSample mimics a 128×128 16-bit detector frame with small dynamic
// range (the compressible case Blosc targets).
func benchSample() *Sample {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 128*128)
	for i := range vals {
		vals[i] = float64(100 + rng.Intn(50))
	}
	return SampleFromFloats(vals, []int{128, 128}, U16, []float64{1, 2})
}

func benchEncode(b *testing.B, c Codec) {
	s := benchSample()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		enc, err := c.Encode(s)
		if err != nil {
			b.Fatal(err)
		}
		n = len(enc)
	}
	b.SetBytes(int64(len(s.Data)))
	b.ReportMetric(float64(len(s.Data))/float64(n), "compression-x")
}

func benchDecode(b *testing.B, c Codec) {
	s := benchSample()
	enc, err := c.Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(s.Data)))
}

func BenchmarkEncodeRaw(b *testing.B)    { benchEncode(b, Raw{}) }
func BenchmarkEncodePickle(b *testing.B) { benchEncode(b, Gob{}) }
func BenchmarkEncodeBlosc(b *testing.B)  { benchEncode(b, Block{}) }
func BenchmarkDecodeRaw(b *testing.B)    { benchDecode(b, Raw{}) }
func BenchmarkDecodePickle(b *testing.B) { benchDecode(b, Gob{}) }
func BenchmarkDecodeBlosc(b *testing.B)  { benchDecode(b, Block{}) }

// BenchmarkDecodeBloscPatch decodes the served shape: a labelled 15×15
// f32 Bragg patch, whose 900-byte payload is one stored block.
func BenchmarkDecodeBloscPatch(b *testing.B) {
	s := randomSample(rand.New(rand.NewSource(1)), F32, []int{15, 15})
	enc, err := Block{}.Encode(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := (Block{}).Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(s.Data)))
}

func BenchmarkShuffleBytes(b *testing.B) {
	data := make([]byte, 128*128*2)
	dst := make([]byte, len(data))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shuffleBytesInto(dst, data, 2)
	}
	b.SetBytes(int64(len(data)))
}
