package dmsapi

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"fairdms/internal/codec"
)

// FuzzDecodeSamples treats the /v1 JSON sample validator as what it is, a
// parser of untrusted input: arbitrary bytes go through json.Unmarshal
// into an IngestRequest, the way a JSON body reaches a handler, and then
// through decodeSamples. Whatever the bytes: no panic, and every sample
// it accepts passes Validate and has exactly Elems() values for FloatsInto
// to write, every one of them written.
//
// Seeds: here, a valid request of each dtype; in
// testdata/fuzz/FuzzDecodeSamples, by name, negative dimensions whose
// product is positive, a shape whose product overflows to 1, dtypes 0 and
// 5, and a payload one byte short.
func FuzzDecodeSamples(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []codec.Dtype{codec.U8, codec.U16, codec.F32, codec.F64} {
		vals := make([]float64, 6)
		for i := range vals {
			vals[i] = float64(rng.Intn(200))
		}
		body, err := json.Marshal(IngestRequest{
			Dataset: "scan",
			Samples: []Sample{FromCodec(codec.SampleFromFloats(vals, []int{2, 3}, dt, []float64{0.5}))},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req IngestRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		samples, err := decodeSamples(req.Samples)
		if err != nil {
			return
		}
		for i, s := range samples {
			if err := s.Validate(); err != nil {
				t.Fatalf("sample %d accepted but fails Validate: %v", i, err)
			}
			// Two passes over buffers of exactly Elems() values, prefilled
			// differently: a value left unwritten shows as a difference.
			n := s.Elems()
			a, b := make([]float64, n), make([]float64, n)
			for j := range b {
				b[j] = math.Inf(1)
			}
			s.FloatsInto(a)
			s.FloatsInto(b)
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("sample %d: FloatsInto left value %d of %d unwritten", i, j, n)
				}
			}
		}
	})
}
