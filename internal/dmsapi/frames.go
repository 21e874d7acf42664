package dmsapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
)

// The frame encoding is the binary body form of the wire structs that
// carry []Sample or []Match — what client, dmsd and dmsrouter say to each
// other, so that sample payloads cross a hop as bytes instead of base64
// inside JSON (which encoding/json decodes at ~110 MB/s), and a nearest
// answer's match list is read without encoding/json (79 allocations for
// 64 matches, 6 framed). JSON stays the interoperable form of the whole
// API; a body is framed only when its Content-Type (or, for a response,
// the request's Accept) names ContentTypeFrames.
//
// Layout, all integers little-endian:
//
//	"FDF1"                     magic
//	u32 n · n bytes            the struct's own JSON with Samples (Matches) nil
//	u32 count                  samples (matches)
//	count × sample
//	  u8  dtype
//	  u32 ndim  · ndim × i64   shape
//	  u32 nlab  · nlab × f64   label
//	  u32 len   · len bytes    data
//	count × match
//	  u8  found                0 or 1
//	  u64 dist                 float64 bits
//	  u32 len   · len bytes    doc id
//
// The decoder only frames: it checks the magic, that every declared count
// fits in what is left of the body, that a found flag is 0 or 1, and that
// nothing trails the last sample or match. Dtype, shape and payload length
// are DecodeSample's to validate, exactly as for a JSON body. Decoded Data
// aliases the body buffer, so a body buffer is never pooled or reused.

// ContentTypeFrames is the media type of a frame-encoded body.
const ContentTypeFrames = "application/vnd.fairdms.frames"

const (
	contentTypeJSON = "application/json"
	frameMagic      = "FDF1"
	// frameSampleMin and frameMatchMin are the encoded sizes of a sample
	// with no shape, label or data and of a match with no id: what bounds a
	// declared count by the bytes that remain.
	frameSampleMin = 1 + 4 + 4 + 4
	frameMatchMin  = 1 + 8 + 4
	// frameArenaChunk is how many shape or label elements one arena
	// allocation holds at most.
	frameArenaChunk = 256
)

var (
	samplesType = reflect.TypeOf([]Sample(nil))
	matchesType = reflect.TypeOf([]Match(nil))
)

// framedField returns the index of t's framed field — Samples []Sample or
// Matches []Match — when t is a wire struct (or a pointer to one) that has
// one: the property that selects the frame encoding.
func framedField(t reflect.Type) (int, bool) {
	if t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t == nil || t.Kind() != reflect.Struct {
		return 0, false
	}
	if f, ok := t.FieldByName("Samples"); ok && f.Type == samplesType {
		return f.Index[0], true
	}
	if f, ok := t.FieldByName("Matches"); ok && f.Type == matchesType {
		return f.Index[0], true
	}
	return 0, false
}

// carriesFrames reports whether values of t travel framed.
func carriesFrames(t reflect.Type) bool {
	_, ok := framedField(t)
	return ok
}

// frameSlot returns the address of the framed field of the wire struct p
// points to — a *[]Sample or a *[]Match — or nil when p is not a pointer
// to a struct that carries one.
func frameSlot(p any) any {
	rv := reflect.ValueOf(p)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil
	}
	i, ok := framedField(rv.Type())
	if !ok {
		return nil
	}
	return rv.Elem().Field(i).Addr().Interface()
}

// isFrames reports whether a Content-Type header names the frame encoding.
func isFrames(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.EqualFold(strings.TrimSpace(mt), ContentTypeFrames)
}

// marshalBody encodes v as a request body — frames when v carries samples
// or matches, JSON otherwise — and returns the Content-Type to send it
// under.
func marshalBody(v any) (data []byte, contentType string, err error) {
	if carriesFrames(reflect.TypeOf(v)) {
		data, err = encodeFrames(v)
		return data, ContentTypeFrames, err
	}
	data, err = json.Marshal(v)
	return data, contentTypeJSON, err
}

// unmarshalBody decodes a request body into v by its Content-Type: frames
// when the header says so, JSON for anything else (including no header at
// all).
func unmarshalBody(contentType string, body []byte, v any) error {
	if isFrames(contentType) {
		return decodeFrames(body, v)
	}
	// A Decoder, not Unmarshal: a JSON body is read as it always was, the
	// first value and nothing after it.
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// encodeFrames frames v, a wire struct (or pointer to one) that carries
// samples or matches. v is not modified.
func encodeFrames(v any) ([]byte, error) {
	rv := reflect.Indirect(reflect.ValueOf(v))
	if !rv.IsValid() || !carriesFrames(rv.Type()) {
		return nil, fmt.Errorf("frames: %T carries no samples or matches", v)
	}
	cp := reflect.New(rv.Type())
	cp.Elem().Set(rv)
	var samples []Sample
	var matches []Match
	switch slot := frameSlot(cp.Interface()).(type) {
	case *[]Sample:
		samples, *slot = *slot, nil
	case *[]Match:
		matches, *slot = *slot, nil
	}
	hdr, err := json.Marshal(cp.Interface())
	if err != nil {
		return nil, err
	}

	size := len(frameMagic) + 4 + len(hdr) + 4
	for i := range samples {
		s := &samples[i]
		size += frameSampleMin + 8*len(s.Shape) + 8*len(s.Label) + len(s.Data)
	}
	for i := range matches {
		size += frameMatchMin + len(matches[i].DocID)
	}
	if uint64(size) > math.MaxUint32 {
		// Every length field is a u32 and each is at most the whole body.
		return nil, errors.New("frames: body over 4 GiB")
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, size)
	buf = append(buf, frameMagic...)
	buf = le.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	buf = le.AppendUint32(buf, uint32(len(samples)+len(matches)))
	for i := range samples {
		s := &samples[i]
		buf = append(buf, s.Dtype)
		buf = le.AppendUint32(buf, uint32(len(s.Shape)))
		for _, d := range s.Shape {
			buf = le.AppendUint64(buf, uint64(int64(d)))
		}
		buf = le.AppendUint32(buf, uint32(len(s.Label)))
		for _, l := range s.Label {
			buf = le.AppendUint64(buf, math.Float64bits(l))
		}
		buf = le.AppendUint32(buf, uint32(len(s.Data)))
		buf = append(buf, s.Data...)
	}
	for i := range matches {
		m := &matches[i]
		var found byte
		if m.Found {
			found = 1
		}
		buf = append(buf, found)
		buf = le.AppendUint64(buf, math.Float64bits(m.Dist))
		buf = le.AppendUint32(buf, uint32(len(m.DocID)))
		buf = append(buf, m.DocID...)
	}
	return buf, nil
}

// frameCursor walks a frame body. A read past the end marks it short and
// yields zeros from then on, so the decoder checks once per sample rather
// than once per field.
type frameCursor struct {
	b     []byte
	short bool
}

// take returns the next n bytes, capped so an append by whoever ends up
// holding them cannot reach the bytes that follow.
func (c *frameCursor) take(n int) []byte {
	if c.short || n < 0 || n > len(c.b) {
		c.short = true
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// u32 reads a length field. Where an int has 32 bits, int(c.u32()) of 2³¹
// or more is negative, and take and words refuse it as they refuse any
// length longer than the body.
func (c *frameCursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// words returns the next n 8-byte words as raw bytes (n is a declared
// count: checked against what is left before anything is sized from it).
func (c *frameCursor) words(n int) []byte {
	if n < 0 || n > len(c.b)/8 {
		c.short = true
		return nil
	}
	return c.take(8 * n)
}

// frameArena hands out sub-slices of chunked allocations, so a body of n
// samples costs a handful of shape and label allocations instead of 2n. A
// chunk is never larger than the elements the rest of the body could hold.
type frameArena[T any] struct{ free []T }

func (a *frameArena[T]) get(n, bodyLeft int) []T {
	if n > len(a.free) {
		a.free = make([]T, max(n, min(bodyLeft/8, frameArenaChunk)))
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}

// decodeFrames decodes a frame body into v, a pointer to a wire struct
// that carries samples or matches. The header fills v as a JSON body
// would; the section replaces v's Samples (their Data aliasing body) or
// Matches.
func decodeFrames(body []byte, v any) error {
	slot := frameSlot(v)
	if slot == nil {
		return fmt.Errorf("frames: %T carries no samples or matches, send it as JSON", v)
	}
	c := frameCursor{b: body}
	if string(c.take(len(frameMagic))) != frameMagic {
		return errors.New("frames: bad magic")
	}
	hdr := c.take(int(c.u32()))
	count := c.u32()
	if c.short {
		return errors.New("frames: truncated header")
	}
	item, items, least := "sample", "samples", frameSampleMin
	if _, ok := slot.(*[]Match); ok {
		item, items, least = "match", "matches", frameMatchMin
	}
	if uint64(count) > uint64(len(c.b)/least) {
		return fmt.Errorf("frames: %d %s declared in %d bytes", count, items, len(c.b))
	}
	if err := json.Unmarshal(hdr, v); err != nil {
		return fmt.Errorf("frames: header: %w", err)
	}
	switch slot := slot.(type) {
	case *[]Sample:
		samples, err := decodeSamplesSection(&c, int(count))
		if err != nil {
			return err
		}
		*slot = samples
	case *[]Match:
		matches, err := decodeMatchesSection(&c, int(count))
		if err != nil {
			return err
		}
		*slot = matches
	}
	if len(c.b) > 0 {
		return fmt.Errorf("frames: %d bytes after the last %s", len(c.b), item)
	}
	return nil
}

// decodeSamplesSection reads count samples, count already checked against
// the bytes left. An empty section is nil, as a JSON body without the
// field decodes.
func decodeSamplesSection(c *frameCursor, count int) ([]Sample, error) {
	if count == 0 {
		return nil, nil
	}
	le := binary.LittleEndian
	samples := make([]Sample, count)
	var ints frameArena[int]
	var floats frameArena[float64]
	for i := range samples {
		s := &samples[i]
		if p := c.take(1); p != nil {
			s.Dtype = p[0]
		}
		if n := int(c.u32()); n != 0 {
			if p := c.words(n); p != nil {
				s.Shape = ints.get(n, len(c.b)+len(p))
				for j := range s.Shape {
					s.Shape[j] = int(int64(le.Uint64(p[8*j:])))
				}
			}
		}
		if n := int(c.u32()); n != 0 {
			if p := c.words(n); p != nil {
				s.Label = floats.get(n, len(c.b)+len(p))
				for j := range s.Label {
					s.Label[j] = math.Float64frombits(le.Uint64(p[8*j:]))
				}
			}
		}
		s.Data = c.take(int(c.u32()))
		if c.short {
			return nil, fmt.Errorf("frames: truncated at sample %d of %d", i, count)
		}
	}
	return samples, nil
}

// decodeMatchesSection reads count matches, count already checked against
// the bytes left. Every doc id is a substring of one string, built in a
// buffer sized once: the ids of a well-formed section are exactly the
// bytes its fixed fields leave, so the buffer is never grown.
func decodeMatchesSection(c *frameCursor, count int) ([]Match, error) {
	if count == 0 {
		return nil, nil
	}
	matches := make([]Match, count)
	var ids strings.Builder
	ids.Grow(len(c.b) - count*frameMatchMin)
	for i := range matches {
		m := &matches[i]
		fixed := c.take(1 + 8)
		id := c.take(int(c.u32()))
		if c.short {
			return nil, fmt.Errorf("frames: truncated at match %d of %d", i, count)
		}
		if fixed[0] > 1 {
			return nil, fmt.Errorf("frames: match %d: found flag %d", i, fixed[0])
		}
		m.Found = fixed[0] == 1
		m.Dist = math.Float64frombits(binary.LittleEndian.Uint64(fixed[1:]))
		if len(id) > 0 {
			// A Builder's bytes are never written again once appended, so
			// each id may view them while later ones are added.
			ids.Write(id)
			all := ids.String()
			m.DocID = all[len(all)-len(id):]
		}
	}
	return matches, nil
}
