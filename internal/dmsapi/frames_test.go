package dmsapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"fairdms/internal/codec"
)

// frameCarriers builds a zero value of each wire type that travels framed
// — the eleven that carry samples, then the one that carries matches — in
// a fixed order the fuzz target indexes.
var frameCarriers = []func() any{
	func() any { return new(IngestRequest) },
	func() any { return new(IngestBatchRequest) },
	func() any { return new(CertaintyRequest) },
	func() any { return new(LookupRequest) },
	func() any { return new(NearestRequest) },
	func() any { return new(PDFRequest) },
	func() any { return new(FitRequest) },
	func() any { return new(DrawRequest) },
	func() any { return new(TrainRequest) },
	func() any { return new(LookupResponse) },
	func() any { return new(SamplesResponse) },
	func() any { return new(NearestResponse) },
}

// sampleSlot and matchSlot return the framed field of the wire struct p
// points to, or nil when it is not a field of their type.
func sampleSlot(p any) *[]Sample {
	s, _ := frameSlot(p).(*[]Sample)
	return s
}

func matchSlot(p any) *[]Match {
	m, _ := frameSlot(p).(*[]Match)
	return m
}

// TestFrameCarriersAreTheElevenSampleTypes pins which wire types the frame
// encoding is selected for: the ones with a Samples []Sample field, found
// by reflection, are exactly the listed eleven, and NearestResponse, the
// one with a Matches []Match field, is the twelfth.
func TestFrameCarriersAreTheElevenSampleTypes(t *testing.T) {
	if len(frameCarriers) != 12 {
		t.Fatalf("%d carriers listed, want 12", len(frameCarriers))
	}
	for i, mk := range frameCarriers {
		if v := mk(); (sampleSlot(v) == nil) != (i == 11) || (matchSlot(v) == nil) != (i != 11) {
			t.Errorf("%T: carrier %d frames %T", v, i, frameSlot(v))
		}
	}
	for _, v := range []any{
		new(SamplesRequest), new(DrawResponse), new(RecommendRequest), new(AddModelRequest),
		new(IngestResponse), new(IngestBatchResponse), new(CertaintyResponse),
		new(PDFResponse), new(FitResponse), new(TrainJob), new(HealthResponse), new(struct{}), nil,
	} {
		if frameSlot(v) != nil {
			t.Errorf("%T travels framed", v)
		}
		if _, ct, err := marshalBody(v); err != nil || ct != contentTypeJSON {
			t.Errorf("%T: sent as %q (err %v), want JSON", v, ct, err)
		}
	}
}

// randomSamples draws n samples over every dtype with 0–3 dimensions and
// 0–3 label values; zero dimensions, zero-length labels and zero-length
// data all occur.
func randomSamples(rng *rand.Rand, n int) []Sample {
	out := make([]Sample, n)
	for i := range out {
		s := &out[i]
		s.Dtype = uint8(rng.Intn(int(codec.F64) + 2)) // one past the last known dtype too
		elems := 1
		for d := rng.Intn(4); d > 0; d-- {
			dim := rng.Intn(5)
			s.Shape = append(s.Shape, dim)
			elems *= dim
		}
		if len(s.Shape) == 0 {
			elems = 0
		}
		s.Data = make([]byte, elems*rng.Intn(9))
		rng.Read(s.Data)
		for l := rng.Intn(4); l > 0; l-- {
			s.Label = append(s.Label, rng.NormFloat64())
		}
	}
	if n > 0 && rng.Intn(2) == 0 {
		out[0].Label = []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1)} // not JSON's to carry
		out[0].Shape = []int{-1, math.MaxInt}                                    // nor the decoder's to judge
	}
	return out
}

// randomMatches draws n matches: found and not, ids empty, short and
// multi-byte, and distances JSON cannot carry.
func randomMatches(rng *rand.Rand, n int) []Match {
	out := make([]Match, n)
	for i := range out {
		m := &out[i]
		if m.Found = rng.Intn(4) > 0; m.Found {
			m.DocID = fmt.Sprintf("shard%d/%x·", rng.Intn(3), rng.Int63())[:rng.Intn(12)]
			m.Dist = rng.ExpFloat64()
		}
	}
	if n > 0 && rng.Intn(2) == 0 {
		out[0].Dist = math.NaN()
		out[n-1].Dist = math.Copysign(0, -1)
	}
	return out
}

// fill sets a carrier's framed field to n random samples or matches.
func fill(v any, rng *rand.Rand, n int) {
	if m := matchSlot(v); m != nil {
		*m = randomMatches(rng, n)
		return
	}
	*sampleSlot(v) = randomSamples(rng, n)
}

// withHeader sets the non-sample fields a carrier has, so a round trip
// exercises the header too.
func withHeader(v any, rng *rand.Rand) {
	switch v := v.(type) {
	case *IngestRequest:
		v.Dataset = "scan <7> & co"
	case *CertaintyRequest:
		v.Threshold = rng.Float64()
	case *NearestRequest:
		v.Distinct, v.Exclude = true, []string{"a/1", "b/2", ""}
	case *FitRequest:
		v.K = 1 + rng.Intn(9)
	case *DrawRequest:
		v.Seed = rng.Int63() - rng.Int63()
	case *TrainRequest:
		v.Model, v.LR, v.Meta = "mlp", 1e-3, map[string]string{"b": "2", "a": "1"}
	case *LookupResponse:
		v.Degraded = true
	case *SamplesResponse:
		v.Missing = []string{"gone"}
	case *NearestResponse:
		v.Degraded = true
	}
}

// sameBits compares two decoded carriers, floats by bit pattern (NaN
// labels and distances survive a frame) and nil equal to empty.
func sameBits(a, b any) bool {
	if am := matchSlot(a); am != nil {
		x, y := *am, *matchSlot(b)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Found != y[i].Found || x[i].DocID != y[i].DocID || math.Float64bits(x[i].Dist) != math.Float64bits(y[i].Dist) {
				return false
			}
		}
		return sameHeader(a, b)
	}
	as, bs := *sampleSlot(a), *sampleSlot(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		x, y := as[i], bs[i]
		if x.Dtype != y.Dtype || !bytes.Equal(x.Data, y.Data) || len(x.Shape) != len(y.Shape) || len(x.Label) != len(y.Label) {
			return false
		}
		for j := range x.Shape {
			if x.Shape[j] != y.Shape[j] {
				return false
			}
		}
		for j := range x.Label {
			if math.Float64bits(x.Label[j]) != math.Float64bits(y.Label[j]) {
				return false
			}
		}
	}
	return sameHeader(a, b)
}

// sameHeader compares two carriers with their framed fields cleared.
func sameHeader(a, b any) bool {
	ac, bc := reflect.New(reflect.TypeOf(a).Elem()), reflect.New(reflect.TypeOf(b).Elem())
	ac.Elem().Set(reflect.ValueOf(a).Elem())
	bc.Elem().Set(reflect.ValueOf(b).Elem())
	for _, c := range []reflect.Value{ac, bc} {
		i, _ := framedField(c.Type())
		f := c.Elem().Field(i)
		f.Set(reflect.Zero(f.Type()))
	}
	return reflect.DeepEqual(ac.Interface(), bc.Interface())
}

// TestFramesRoundTrip is the codec's property test: for every carrier and
// random batches — zero samples or matches, zero-length labels and ids, no
// dimensions, values JSON cannot carry — decode(encode(v)) == v,
// encode(decode(b)) == b, encoding does not touch v, and decoded payloads
// alias the body.
func TestFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 200; round++ {
		for kind, mk := range frameCarriers {
			in := mk()
			withHeader(in, rng)
			fill(in, rng, rng.Intn(6))
			before := fmt.Sprintf("%#v", in)

			body, err := encodeFrames(in)
			if err != nil {
				t.Fatalf("%T: encode: %v", in, err)
			}
			if after := fmt.Sprintf("%#v", in); after != before {
				t.Fatalf("%T: encoding changed its input:\n %s\n %s", in, before, after)
			}
			out := mk()
			if err := decodeFrames(body, out); err != nil {
				t.Fatalf("%T: decode: %v", in, err)
			}
			if !sameBits(in, out) {
				t.Fatalf("kind %d: round trip changed the value:\n in  %#v\n out %#v", kind, in, out)
			}
			again, err := encodeFrames(out)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("%T: encode(decode(b)) != b (err %v)", in, err)
			}
			byValue, err := encodeFrames(reflect.ValueOf(in).Elem().Interface())
			if err != nil || !bytes.Equal(byValue, body) {
				t.Fatalf("%T: a value encodes differently from a pointer to it (err %v)", in, err)
			}
			if sampleSlot(out) == nil {
				continue
			}
			for i, s := range *sampleSlot(out) {
				if len(s.Data) == 0 {
					continue
				}
				off := uintptr(unsafe.Pointer(&s.Data[0])) - uintptr(unsafe.Pointer(&body[0]))
				if off >= uintptr(len(body)) {
					t.Fatalf("%T: sample %d's data is a copy, not a view of the body", in, i)
				}
			}
		}
	}
}

// frameBody hand-builds a frame body field by field, recording where each
// field starts — the boundaries the truncation seeds cut at.
type frameBody struct {
	buf  []byte
	cuts []int
}

func (b *frameBody) raw(p []byte) *frameBody {
	b.cuts = append(b.cuts, len(b.buf))
	b.buf = append(b.buf, p...)
	return b
}

func (b *frameBody) u32(v uint32) *frameBody {
	return b.raw(binary.LittleEndian.AppendUint32(nil, v))
}

func (b *frameBody) sample(s Sample) *frameBody {
	b.raw([]byte{s.Dtype}).u32(uint32(len(s.Shape)))
	for _, d := range s.Shape {
		b.raw(binary.LittleEndian.AppendUint64(nil, uint64(int64(d))))
	}
	b.u32(uint32(len(s.Label)))
	for _, l := range s.Label {
		b.raw(binary.LittleEndian.AppendUint64(nil, math.Float64bits(l)))
	}
	return b.u32(uint32(len(s.Data))).raw(s.Data)
}

func (b *frameBody) match(m Match) *frameBody {
	var found byte
	if m.Found {
		found = 1
	}
	b.raw([]byte{found}).raw(binary.LittleEndian.AppendUint64(nil, math.Float64bits(m.Dist)))
	return b.u32(uint32(len(m.DocID))).raw([]byte(m.DocID))
}

func newFrameBody(header string, count uint32) *frameBody {
	return new(frameBody).raw([]byte(frameMagic)).u32(uint32(len(header))).raw([]byte(header)).u32(count)
}

var frameSeedSamples = []Sample{
	{Shape: []int{2, 2}, Dtype: uint8(codec.F32), Data: bytes.Repeat([]byte{1, 2, 3, 4}, 4), Label: []float64{0.25, -3}},
	{Shape: []int{3}, Dtype: uint8(codec.U8), Data: []byte{7, 8, 9}},
	{},
}

var frameSeedMatches = []Match{{DocID: "enc/3", Dist: 0.125, Found: true}, {}, {DocID: "b/17", Dist: 2, Found: true}}

// nearest64Body is a 64-match NearestResponse built field by field, as a
// serve_scan nearest answers: found and not, ids of different lengths.
func nearest64Body() (*frameBody, NearestResponse) {
	var resp NearestResponse
	body := newFrameBody(`{"matches":null}`, 64)
	for i := range 64 {
		m := Match{DocID: fmt.Sprintf("s%d/%08x%d", i%3, 7919*i, i), Dist: float64(i) / 7, Found: i%9 != 4}
		if !m.Found {
			m = Match{}
		}
		resp.Matches = append(resp.Matches, m)
		body.match(m)
	}
	return body, resp
}

// hugeCountBody declares 2³²−1 samples and holds none.
func hugeCountBody() []byte {
	return newFrameBody(`{"samples":null}`, math.MaxUint32).buf
}

// FuzzDecodeFrames treats the frame decoder as what it is, a parser of
// untrusted bytes. kind picks the wire type decoded into. Whatever the
// body: no panic; memory allocated is bounded by the body's length, not by
// the counts it declares; and an accepted body re-encodes to itself — the
// sample or match section byte for byte, the JSON header up to the
// encoder's own spelling of it, which is then a fixed point.
//
// Seeds: here, a valid body of each of the twelve types, with and without
// a trailing byte, a sample body and a 64-match body each cut at every
// field boundary, and headers that are not the encoder's; in
// testdata/fuzz/FuzzDecodeFrames, by name, a count, ndim, label count,
// data length and header length of MaxUint32, and a match count and id
// length of MaxUint32.
func FuzzDecodeFrames(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for kind, mk := range frameCarriers {
		v := mk()
		withHeader(v, rng)
		if m := matchSlot(v); m != nil {
			*m = frameSeedMatches
		} else {
			*sampleSlot(v) = frameSeedSamples
		}
		body, err := encodeFrames(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(kind), body)
		f.Add(uint8(kind), append(bytes.Clone(body), 0))
	}
	whole := newFrameBody(`{"samples":null}`, uint32(len(frameSeedSamples)))
	for _, s := range frameSeedSamples {
		whole.sample(s)
	}
	for _, cut := range whole.cuts {
		f.Add(uint8(3), bytes.Clone(whole.buf[:cut]))
	}
	f.Add(uint8(3), hugeCountBody())
	f.Add(uint8(3), newFrameBody(`{}`, 1).raw([]byte{3}).u32(math.MaxUint32).buf)                     // ndim
	f.Add(uint8(3), newFrameBody(`{}`, 1).raw([]byte{3}).u32(0).u32(math.MaxUint32).buf)              // label count
	f.Add(uint8(3), newFrameBody(`{}`, 1).raw([]byte{3}).u32(0).u32(0).u32(math.MaxUint32).buf)       // data length
	f.Add(uint8(3), new(frameBody).raw([]byte(frameMagic)).u32(math.MaxUint32).raw([]byte(`{}`)).buf) // header length
	f.Add(uint8(3), newFrameBody(`{"samples":[{"shape":[1],"dtype":0,"data":"AA=="}]}`, 0).buf)       // samples smuggled in the header
	f.Add(uint8(4), newFrameBody(` { "exclude" : ["x"] , "unknown" : 1 } `, 1).sample(Sample{}).buf)  // a header spelled otherwise
	f.Add(uint8(0), []byte(`{"samples":[]}`))                                                         // JSON sent as frames
	f.Add(uint8(200), newFrameBody(`{}`, 0).buf)                                                      // kind wraps around

	const nearestKind = 11
	nearest, resp := nearest64Body()
	if enc, err := encodeFrames(resp); err != nil || !bytes.Equal(enc, nearest.buf) {
		f.Fatalf("the encoder does not lay matches out as documented (err %v)", err)
	}
	f.Add(uint8(nearestKind), nearest.buf)
	f.Add(uint8(nearestKind), append(bytes.Clone(nearest.buf), 0))
	for _, cut := range nearest.cuts {
		f.Add(uint8(nearestKind), bytes.Clone(nearest.buf[:cut]))
	}
	f.Add(uint8(nearestKind), newFrameBody(`{}`, 1).raw([]byte{2}).raw(make([]byte, 8)).u32(0).buf) // found flag 2

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		mk := frameCarriers[int(kind)%len(frameCarriers)]
		v := mk()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeFrames(body, v)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if err != nil {
			return
		}
		hdrLen := int(binary.LittleEndian.Uint32(body[4:]))
		section := body[8+hdrLen:]

		canon, err := encodeFrames(v)
		if err != nil {
			t.Fatalf("re-encoding an accepted body: %v", err)
		}
		canonHdrLen := int(binary.LittleEndian.Uint32(canon[4:]))
		if !bytes.Equal(canon[8+canonHdrLen:], section) {
			t.Fatalf("sample section changed on re-encoding:\n in  %x\n out %x", section, canon[8+canonHdrLen:])
		}
		v2 := mk()
		if err := decodeFrames(canon, v2); err != nil {
			t.Fatalf("the encoder's own output is rejected: %v", err)
		}
		if again, err := encodeFrames(v2); err != nil || !bytes.Equal(again, canon) {
			t.Fatalf("the encoder's output is not a fixed point (err %v):\n %q\n %q", err, canon, again)
		}
	})
}

// TestFramesHugeCountIsCheap is the amplification check: a body that
// declares 2³²−1 samples in two dozen bytes is turned away — a 400 over
// HTTP — before anything is sized from the count.
func TestFramesHugeCountIsCheap(t *testing.T) {
	body := hugeCountBody()
	var req LookupRequest
	if err := decodeFrames(body, &req); err == nil || !strings.Contains(err.Error(), "4294967295 samples declared") {
		t.Fatalf("decode error = %v, want the declared count refused", err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_ = decodeFrames(body, &req) // refused above; this loop only weighs it
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Fatalf("refusing a %d-byte body allocates %d bytes, want < 4 KiB", len(body), per)
	}

	_, client := startServer(t, ServerConfig{})
	err := client.DoBody(t.Context(), "POST", PathLookup, Body{ContentType: ContentTypeFrames, Data: body}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.ErrCode != CodeBadRequest {
		t.Fatalf("over HTTP: %v, want 400 bad_request", err)
	}
}

// wireBatch is n float32 patches of side×side with a two-value label —
// the shape of a Bragg-peak request.
func wireBatch(n, side int) []Sample {
	rng := rand.New(rand.NewSource(int64(n*side) + 1))
	out := make([]Sample, n)
	for i := range out {
		data := make([]byte, 4*side*side)
		rng.Read(data)
		out[i] = Sample{Shape: []int{side, side}, Dtype: uint8(codec.F32), Data: data, Label: []float64{rng.Float64(), rng.Float64()}}
	}
	return out
}

// BenchmarkWire is the wire layer's recorded benchmark: one sample-carrying
// body at the three request sizes the workloads send (serve_hot's 8×11²,
// serve_scan's 64×11², update_cycle's 512×15²), and serve_scan's 64-match
// nearest answer, in both encodings, each way. MB/s is of the encoded body.
func BenchmarkWire(b *testing.B) {
	type body struct {
		name string
		v    any
		mk   func() any
	}
	var bodies []body
	for _, size := range []struct{ n, side int }{{8, 11}, {64, 11}, {512, 15}} {
		bodies = append(bodies, body{fmt.Sprintf("%dx%d²", size.n, size.side),
			LookupResponse{Samples: wireBatch(size.n, size.side)}, func() any { return new(LookupResponse) }})
	}
	_, nearest := nearest64Body()
	bodies = append(bodies, body{"matches64", nearest, func() any { return new(NearestResponse) }})
	for _, bd := range bodies {
		for _, enc := range []struct {
			name, contentType string
			marshal           func(any) ([]byte, error)
		}{{"json", contentTypeJSON, json.Marshal}, {"frames", ContentTypeFrames, encodeFrames}} {
			data, err := enc.marshal(bd.v)
			if err != nil {
				b.Fatal(err)
			}
			contentType := enc.contentType
			name := bd.name + "/" + enc.name
			b.Run(name+"/encode", func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for b.Loop() {
					if _, err := enc.marshal(bd.v); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/decode", func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for b.Loop() {
					if err := unmarshalBody(contentType, data, bd.mk()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
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

// TestDecodeMatchesAllocations pins what reading serve_scan's 64-match
// nearest answer costs, a count that does not move with the host: 6
// allocations — the match slice, one buffer for every doc id, and 4 in
// encoding/json for the header — where the JSON body took 79. The ceiling
// is that count plus 2 of headroom for a Go release's encoding/json.
func TestDecodeMatchesAllocations(t *testing.T) {
	if raceEnabled() {
		t.Skip("allocation counts are not meaningful under -race")
	}
	nearest, want := nearest64Body()
	var got NearestResponse
	allocs := testing.AllocsPerRun(100, func() {
		got = NearestResponse{}
		if err := decodeFrames(nearest.buf, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	const ceiling = 6 + 2
	if allocs > ceiling {
		t.Fatalf("decoding a framed 64-match body: %v allocations, want at most %d", allocs, ceiling)
	}
}

// TestUnmarshalBodyPicksByContentType checks the selection rule's edges:
// parameters and case do not hide the frame type, and anything else —
// no header included — is JSON read as it always was, the first value and
// nothing after it.
func TestUnmarshalBodyPicksByContentType(t *testing.T) {
	want := LookupRequest{Samples: frameSeedSamples[:2]}
	framed, err := encodeFrames(want)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
		ok          bool
	}{
		{ContentTypeFrames, framed, true},
		{"Application/VND.fairdms.frames ; v=1", framed, true},
		{ContentTypeFrames, plain, false},
		{"application/json", plain, true},
		{"application/json; charset=utf-8", plain, true},
		{"", plain, true},
		{"text/plain", append(bytes.Clone(plain), " trailing"...), true},
		{"application/json", framed, false},
		{"", framed, false},
	} {
		var got LookupRequest
		err := unmarshalBody(tc.contentType, tc.body, &got)
		if (err == nil) != tc.ok {
			t.Errorf("Content-Type %q: err = %v, want ok=%v", tc.contentType, err, tc.ok)
		}
		if tc.ok && !sameBits(&got, &want) {
			t.Errorf("Content-Type %q: decoded %+v", tc.contentType, got)
		}
	}
}
