// Package codec implements the sample-serialization formats the fairDMS
// storage evaluation compares (paper §III-D):
//
//   - Raw: header + little-endian payload bytes, the cost class of reading a
//     raw tensor file from NFS — no per-element transformation.
//   - Gob: generic Go serialization of a float64 view of the sample. Like
//     Python pickle, it pays a per-element encode/decode cost, which is what
//     makes "Pickle" lose to NFS at large batch sizes in Figs. 6–8.
//   - Block: Blosc-style codec — byte-shuffle to group significant bytes,
//     then per-block DEFLATE with blocks compressed/decompressed in
//     parallel. Smaller on the wire, with a moderate (de)compression cost.
//
// All codecs are stateless and safe for concurrent use.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sync"
)

// Dtype identifies the element type of a sample payload.
type Dtype uint8

// Supported element types.
const (
	U8  Dtype = iota + 1 // unsigned 8-bit (CookieBox images)
	U16                  // unsigned 16-bit (tomography slices)
	F32                  // float32 (Bragg peak patches)
	F64                  // float64
)

// Size returns the element width in bytes.
func (d Dtype) Size() int {
	switch d {
	case U8:
		return 1
	case U16:
		return 2
	case F32:
		return 4
	case F64:
		return 8
	}
	panic(fmt.Sprintf("codec: unknown dtype %d", d))
}

// known reports whether d is one of the supported element types.
func (d Dtype) known() bool { return d >= U8 && d <= F64 }

// String names the dtype.
func (d Dtype) String() string {
	switch d {
	case U8:
		return "u8"
	case U16:
		return "u16"
	case F32:
		return "f32"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("dtype(%d)", d)
}

// Sample is one stored data item: a shaped, typed raw byte payload plus its
// ground-truth label vector (e.g. a Bragg peak's center of mass).
type Sample struct {
	Shape []int
	Dtype Dtype
	Data  []byte    // little-endian elements, len = prod(Shape) * Dtype.Size()
	Label []float64 // ground-truth label (may be empty for unlabeled data)
}

// Elems returns the number of elements implied by the shape.
func (s *Sample) Elems() int {
	n := 1
	for _, d := range s.Shape {
		n *= d
	}
	return n
}

// payloadLen is the payload length the shape and dtype imply, Elems() *
// Dtype.Size(); false if the dtype is unknown, a dimension is negative or
// the length overflows an int.
func (s *Sample) payloadLen() (int, bool) {
	if !s.Dtype.known() {
		return 0, false
	}
	n := s.Dtype.Size()
	for _, d := range s.Shape {
		if d < 0 || (d > 0 && n > math.MaxInt/d) {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Validate checks payload length against shape and dtype.
func (s *Sample) Validate() error {
	want, ok := s.payloadLen()
	if !ok {
		return fmt.Errorf("codec: sample shape %v dtype %s has no valid payload length", s.Shape, s.Dtype)
	}
	if len(s.Data) != want {
		return fmt.Errorf("codec: sample payload %d bytes, shape %v dtype %s needs %d",
			len(s.Data), s.Shape, s.Dtype, want)
	}
	return nil
}

// Floats decodes the payload into float64s (allocating), the form model
// training consumes.
func (s *Sample) Floats() []float64 {
	out := make([]float64, s.Elems())
	s.FloatsInto(out)
	return out
}

// FloatsInto decodes the payload into dst, which must hold Elems() values —
// the allocation-free form batch pipelines use when collating thousands of
// samples into pre-sized tensor rows. Every one of the Elems() values is
// written, zeros for an unknown dtype, so dst may hold anything before.
func (s *Sample) FloatsInto(dst []float64) {
	n := s.Elems()
	out := dst[:n]
	switch s.Dtype {
	default:
		clear(out)
	case U8:
		for i := 0; i < n; i++ {
			out[i] = float64(s.Data[i])
		}
	case U16:
		for i := 0; i < n; i++ {
			out[i] = float64(binary.LittleEndian.Uint16(s.Data[2*i:]))
		}
	case F32:
		for i := 0; i < n; i++ {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(s.Data[4*i:])))
		}
	case F64:
		for i := 0; i < n; i++ {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.Data[8*i:]))
		}
	}
}

// SampleFromFloats builds a sample of the given dtype from float64 values,
// clamping integers into range.
func SampleFromFloats(vals []float64, shape []int, dt Dtype, label []float64) *Sample {
	s := &Sample{Shape: append([]int(nil), shape...), Dtype: dt, Label: append([]float64(nil), label...)}
	s.Data = make([]byte, len(vals)*dt.Size())
	switch dt {
	case U8:
		for i, v := range vals {
			s.Data[i] = byte(clamp(v, 0, 255))
		}
	case U16:
		for i, v := range vals {
			binary.LittleEndian.PutUint16(s.Data[2*i:], uint16(clamp(v, 0, 65535)))
		}
	case F32:
		for i, v := range vals {
			binary.LittleEndian.PutUint32(s.Data[4*i:], math.Float32bits(float32(v)))
		}
	case F64:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(s.Data[8*i:], math.Float64bits(v))
		}
	}
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Codec serializes samples to bytes and back.
type Codec interface {
	Name() string
	Encode(s *Sample) ([]byte, error)
	Decode(b []byte) (*Sample, error)
}

// ---------------------------------------------------------------------------
// Raw codec

// Raw is the no-transformation codec: a fixed header plus the payload bytes.
type Raw struct{}

// Name returns "raw".
func (Raw) Name() string { return "raw" }

// header layout: magic(1) dtype(1) ndim(1) shape(8*ndim) labelLen(2) label(8*labelLen)
const rawMagic = 0xFA

// Encode writes the header and copies the payload.
func (Raw) Encode(s *Sample) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(s.Data) + 16 + 8*len(s.Shape) + 8*len(s.Label))
	buf.WriteByte(rawMagic)
	buf.WriteByte(byte(s.Dtype))
	buf.WriteByte(byte(len(s.Shape)))
	var scratch [8]byte
	for _, d := range s.Shape {
		binary.LittleEndian.PutUint64(scratch[:], uint64(d))
		buf.Write(scratch[:])
	}
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(s.Label)))
	buf.Write(scratch[:2])
	for _, l := range s.Label {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(l))
		buf.Write(scratch[:])
	}
	buf.Write(s.Data)
	return buf.Bytes(), nil
}

// Decode parses the header and references the payload bytes.
func (Raw) Decode(b []byte) (*Sample, error) {
	if len(b) < 3 || b[0] != rawMagic {
		return nil, fmt.Errorf("codec: raw: bad header")
	}
	s := &Sample{Dtype: Dtype(b[1])}
	ndim := int(b[2])
	off := 3
	if len(b) < off+8*ndim+2 {
		return nil, fmt.Errorf("codec: raw: truncated shape")
	}
	for i := 0; i < ndim; i++ {
		s.Shape = append(s.Shape, int(binary.LittleEndian.Uint64(b[off:])))
		off += 8
	}
	nl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+8*nl {
		return nil, fmt.Errorf("codec: raw: truncated label")
	}
	for i := 0; i < nl; i++ {
		s.Label = append(s.Label, math.Float64frombits(binary.LittleEndian.Uint64(b[off:])))
		off += 8
	}
	s.Data = b[off:]
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Gob ("pickle") codec

// Gob serializes a float64 view of the sample with encoding/gob. The
// per-element float conversion plus gob's reflective encoding reproduce
// pickle's CPU-bound (de)serialization profile.
type Gob struct{}

// Name returns "pickle".
func (Gob) Name() string { return "pickle" }

// gobSample is the wire form: a generic, reflective representation.
type gobSample struct {
	Shape  []int
	Dtype  uint8
	Values []float64
	Label  []float64
}

// Encode gob-encodes the float64 view.
func (Gob) Encode(s *Sample) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(gobSample{
		Shape:  s.Shape,
		Dtype:  uint8(s.Dtype),
		Values: s.Floats(),
		Label:  s.Label,
	})
	if err != nil {
		return nil, fmt.Errorf("codec: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode gob-decodes and re-quantizes to the original dtype. The stream
// is untrusted: an unknown dtype, or values that do not fill the shape,
// is an error.
func (Gob) Decode(b []byte) (*Sample, error) {
	var gs gobSample
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&gs); err != nil {
		return nil, fmt.Errorf("codec: gob decode: %w", err)
	}
	dt := Dtype(gs.Dtype)
	if !dt.known() {
		return nil, fmt.Errorf("codec: gob decode: unknown dtype %d", gs.Dtype)
	}
	s := SampleFromFloats(gs.Values, gs.Shape, dt, gs.Label)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Block ("blosc") codec

// Block is a Blosc-style codec: the payload is byte-shuffled (transposed so
// byte k of every element is contiguous, which groups zero high bytes of
// detector data), split into fixed-size blocks, and each block DEFLATE-
// compressed. Blocks are processed in parallel on encode and decode. A
// payload under MinCompress is one stored block, and decodes in one pass,
// unshuffled straight from the frame into the payload.
type Block struct {
	// BlockSize is the uncompressed bytes per block; 0 means 64 KiB.
	BlockSize int
	// Level is the flate level; 0 means flate.BestSpeed.
	Level int
	// MinCompress is the smallest block worth running DEFLATE on; smaller
	// blocks are stored shuffled-but-raw. Building a dynamic Huffman tree
	// costs tens of microseconds and, on sub-KiB float detector payloads,
	// usually *expands* the data — c-blosc's memcpy fallback exists for the
	// same reason. 0 means 1 KiB; negative means always try to compress.
	MinCompress int
}

// Name returns "blosc".
func (Block) Name() string { return "blosc" }

func (c Block) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 64 << 10
}

func (c Block) level() int {
	if c.Level != 0 {
		return c.Level
	}
	return flate.BestSpeed
}

func (c Block) minCompress() int {
	if c.MinCompress != 0 {
		return c.MinCompress
	}
	return 1 << 10
}

// storedFlag marks an entry of the per-block size table as stored (raw)
// rather than DEFLATE-compressed. Block sizes are bounded by BlockSize, so
// bit 31 is always free. Frames written before this flag existed decode
// unchanged (flag unset = compressed).
const storedFlag = 1 << 31

// maxDeflateRatio bounds how many raw bytes one DEFLATE byte can expand to
// (a 258-byte match coded in two bits), which is how Decode bounds a
// compressed block's raw span by the bytes it carries.
const maxDeflateRatio = 1032

// flateWriters pools *flate.Writer instances per compression level: each
// NewWriter allocates ~1.5 MB of hash-table state, which made per-document
// Encode calls GC-bound on high-rate ingest (the allocation profile of a
// 1k-document batch was >98% flate.NewWriter). Reset reuses that state.
var flateWriters sync.Map // int (level) -> *sync.Pool of *flate.Writer

func acquireFlateWriter(dst io.Writer, level int) (*flate.Writer, error) {
	if p, ok := flateWriters.Load(level); ok {
		if w, _ := p.(*sync.Pool).Get().(*flate.Writer); w != nil {
			w.Reset(dst)
			return w, nil
		}
	}
	return flate.NewWriter(dst, level)
}

func releaseFlateWriter(level int, w *flate.Writer) {
	p, _ := flateWriters.LoadOrStore(level, &sync.Pool{})
	p.(*sync.Pool).Put(w)
}

// flateReaders pools decompressors the same way (NewReader allocates a
// ~32 KiB window plus decode tables per call).
var flateReaders sync.Pool

func acquireFlateReader(src io.Reader) io.ReadCloser {
	if r, _ := flateReaders.Get().(io.ReadCloser); r != nil {
		r.(flate.Resetter).Reset(src, nil)
		return r
	}
	return flate.NewReader(src)
}

// encodeBlock compresses one shuffled block with a pooled writer, falling
// back to storing it raw when compression cannot pay: blocks under
// MinCompress skip DEFLATE entirely, and a compressed result at least as
// large as the input is discarded for the raw bytes.
func (c Block) encodeBlock(chunk []byte) (cb []byte, stored bool, err error) {
	if mc := c.minCompress(); mc > 0 && len(chunk) < mc {
		return chunk, true, nil
	}
	var buf bytes.Buffer
	w, err := acquireFlateWriter(&buf, c.level())
	if err != nil {
		return nil, false, err
	}
	if _, err := w.Write(chunk); err != nil {
		return nil, false, err
	}
	if err := w.Close(); err != nil {
		return nil, false, err
	}
	releaseFlateWriter(c.level(), w)
	if buf.Len() >= len(chunk) {
		return chunk, true, nil
	}
	return buf.Bytes(), false, nil
}

// Encode shuffles and compresses the payload.
func (c Block) Encode(s *Sample) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// The shuffled view is transient (the frame assembly below copies out
	// of it), so byte-wide dtypes use the payload directly and wider ones a
	// pooled scratch buffer — no per-document allocation either way.
	var shuffled []byte
	if width := s.Dtype.Size(); width <= 1 {
		shuffled = s.Data
	} else {
		scratch := acquireShuffleBuf(len(s.Data))
		defer shuffleBufs.Put(scratch)
		shuffled = (*scratch)[:len(s.Data)]
		shuffleBytesInto(shuffled, s.Data, width)
	}
	bs := c.blockSize()
	nblocks := (len(shuffled) + bs - 1) / bs
	if nblocks == 0 {
		nblocks = 1
	}
	comp := make([][]byte, nblocks)
	raw := make([]bool, nblocks)
	if nblocks == 1 {
		// The common small-sample case: no goroutine fan-out overhead.
		cb, stored, err := c.encodeBlock(shuffled)
		if err != nil {
			return nil, fmt.Errorf("codec: block encode: %w", err)
		}
		comp[0], raw[0] = cb, stored
	} else {
		var wg sync.WaitGroup
		errs := make([]error, nblocks)
		for i := 0; i < nblocks; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				lo := i * bs
				hi := lo + bs
				if hi > len(shuffled) {
					hi = len(shuffled)
				}
				comp[i], raw[i], errs[i] = c.encodeBlock(shuffled[lo:hi])
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("codec: block encode: %w", err)
			}
		}
	}

	// Frame: header (same layout as raw) + rawLen(8) + nblocks(4) +
	// per-block sizes + blocks. Pre-sized so assembly never regrows.
	frameLen := 3 + 8*len(s.Shape) + 2 + 8*len(s.Label) + 12 + 4*nblocks
	for _, cb := range comp {
		frameLen += len(cb)
	}
	var buf bytes.Buffer
	buf.Grow(frameLen)
	buf.WriteByte(rawMagic)
	buf.WriteByte(byte(s.Dtype))
	buf.WriteByte(byte(len(s.Shape)))
	var scratch [8]byte
	for _, d := range s.Shape {
		binary.LittleEndian.PutUint64(scratch[:], uint64(d))
		buf.Write(scratch[:])
	}
	binary.LittleEndian.PutUint16(scratch[:2], uint16(len(s.Label)))
	buf.Write(scratch[:2])
	for _, l := range s.Label {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(l))
		buf.Write(scratch[:])
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(len(shuffled)))
	buf.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(nblocks))
	buf.Write(scratch[:4])
	for i, cb := range comp {
		entry := uint32(len(cb))
		if raw[i] {
			entry |= storedFlag
		}
		binary.LittleEndian.PutUint32(scratch[:4], entry)
		buf.Write(scratch[:4])
	}
	for _, cb := range comp {
		buf.Write(cb)
	}
	return buf.Bytes(), nil
}

// Decode checks the frame, then decodes its blocks into a fresh payload. A
// frame of one stored block, what every payload under MinCompress is,
// decodes in one pass: the unshuffle reads the frame and writes the
// payload, with no copy between. Other frames inflate their blocks, in
// parallel when there are several (see inflate).
func (c Block) Decode(b []byte) (*Sample, error) {
	if len(b) < 3 || b[0] != rawMagic {
		return nil, fmt.Errorf("codec: block: bad header")
	}
	s := &Sample{Dtype: Dtype(b[1])}
	ndim := int(b[2])
	off := 3
	if len(b) < off+8*ndim+2 {
		return nil, fmt.Errorf("codec: block: truncated shape")
	}
	if ndim > 0 {
		s.Shape = make([]int, ndim)
	}
	for i := range s.Shape {
		s.Shape[i] = int(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	nl := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+8*nl {
		return nil, fmt.Errorf("codec: block: truncated label")
	}
	if nl > 0 {
		s.Label = make([]float64, nl)
	}
	for i := range s.Label {
		s.Label[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		off += 8
	}
	if len(b) < off+12 {
		return nil, fmt.Errorf("codec: block: truncated frame")
	}
	// Everything that sizes an allocation is checked against the frame
	// first: the payload length against shape and dtype, the block count
	// against the payload length, the block table against the bytes
	// present, and each block's raw span against the bytes it carries (a
	// stored block exactly, a compressed one by DEFLATE's largest ratio),
	// so the payload is about maxDeflateRatio times the frame at most.
	rawLen, ok := s.payloadLen()
	if got := binary.LittleEndian.Uint64(b[off:]); !ok || got != uint64(rawLen) {
		return nil, fmt.Errorf("codec: block: payload length %d does not match shape %v dtype %s", got, s.Shape, s.Dtype)
	}
	off += 8
	bs := c.blockSize()
	nblocks := rawLen / bs
	if rawLen%bs != 0 || nblocks == 0 {
		nblocks++
	}
	if got := binary.LittleEndian.Uint32(b[off:]); uint64(got) != uint64(nblocks) {
		return nil, fmt.Errorf("codec: block: %d blocks for a %d-byte payload, want %d", got, rawLen, nblocks)
	}
	off += 4
	if (len(b)-off)/4 < nblocks {
		return nil, fmt.Errorf("codec: block: truncated block table")
	}
	table := b[off : off+4*nblocks]
	off += 4 * nblocks
	for i := range nblocks {
		span := min(bs, rawLen-i*bs)
		if sz, stored := blockEntry(table, i); stored && sz != span || !stored && sz < span/maxDeflateRatio {
			return nil, fmt.Errorf("codec: block: block %d carries %d bytes for %d raw", i, sz, span)
		}
	}
	body := off
	for i := range nblocks {
		sz, _ := blockEntry(table, i)
		if len(b)-off < sz {
			return nil, fmt.Errorf("codec: block: truncated block %d", i)
		}
		off += sz
	}

	width := s.Dtype.Size()
	s.Data = make([]byte, rawLen)
	if _, stored := blockEntry(table, 0); nblocks == 1 && stored {
		unshuffleInto(s.Data, b[body:off], width)
	} else if err := inflate(s.Data, b[body:off], table, bs, width); err != nil {
		return nil, fmt.Errorf("codec: block decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// blockEntry reads entry i of a frame's block table: the bytes the block
// carries and whether they are stored rather than compressed.
func blockEntry(table []byte, i int) (size int, stored bool) {
	entry := binary.LittleEndian.Uint32(table[4*i:])
	return int(entry &^ storedFlag), entry&storedFlag != 0
}

// inflate decodes the blocks body holds back to back, as table describes
// them, bs raw bytes each but the last, in parallel when there are several,
// and unshuffles them into dst. A byte-wide payload needs no unshuffle, so
// its blocks decode into dst itself; wider ones go through a pooled
// shuffled buffer.
func inflate(dst, body, table []byte, bs, width int) error {
	shuffled := dst
	if width > 1 {
		scratch := acquireShuffleBuf(len(dst))
		defer shuffleBufs.Put(scratch)
		shuffled = (*scratch)[:len(dst)]
	}
	nblocks := len(table) / 4
	blocks := make([][]byte, nblocks)
	for i := range blocks {
		sz, _ := blockEntry(table, i)
		blocks[i], body = body[:sz], body[sz:]
	}
	decodeBlock := func(i int) error {
		lo := i * bs
		hi := min(lo+bs, len(dst))
		if _, stored := blockEntry(table, i); stored {
			copy(shuffled[lo:hi], blocks[i])
			return nil
		}
		r := acquireFlateReader(bytes.NewReader(blocks[i]))
		if _, err := io.ReadFull(r, shuffled[lo:hi]); err != nil {
			return err
		}
		if err := r.Close(); err != nil {
			return err
		}
		flateReaders.Put(r)
		return nil
	}
	if nblocks == 1 {
		if err := decodeBlock(0); err != nil {
			return err
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, nblocks)
		for i := range blocks {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = decodeBlock(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
	}
	if width > 1 {
		unshuffleInto(dst, shuffled, width)
	}
	return nil
}

// shuffleBufs pools Encode's transient shuffle scratch: the shuffled bytes
// live only until they are copied into the output frame, so high-rate
// ingest would otherwise allocate (and GC) one payload-sized buffer per
// document.
var shuffleBufs sync.Pool

func acquireShuffleBuf(n int) *[]byte {
	if p, _ := shuffleBufs.Get().(*[]byte); p != nil && cap(*p) >= n {
		return p
	}
	b := make([]byte, n)
	return &b
}

// shuffleBytesInto regroups the payload into dst (len(dst) >= len(data))
// so byte k of every element is contiguous: Blosc's shuffle filter, which
// makes detector data with small dynamic range highly compressible.
func shuffleBytesInto(dst, data []byte, width int) {
	n := len(data) / width
	for k := 0; k < width; k++ {
		base := k * n
		for i := 0; i < n; i++ {
			dst[base+i] = data[i*width+k]
		}
	}
	// Trailing bytes (payloads not divisible by width) pass through.
	copy(dst[n*width:len(data)], data[n*width:])
}

// unshuffleInto inverts shuffleBytesInto, writing len(dst) bytes from
// data (as long as dst). Widths 2, 4 and 8 assemble each element from its
// byte planes as one word and store it once.
func unshuffleInto(dst, data []byte, width int) {
	data = data[:len(dst)]
	n := len(dst) / width
	switch width {
	case 1:
		copy(dst, data)
		return
	case 2:
		p0, p1 := data[:n], data[n:2*n]
		p1 = p1[:len(p0)]
		for i := range p0 {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(p0[i])|uint16(p1[i])<<8)
		}
	case 4:
		p0, p1, p2, p3 := data[:n], data[n:2*n], data[2*n:3*n], data[3*n:4*n]
		p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
		for i := range p0 {
			binary.LittleEndian.PutUint32(dst[4*i:],
				uint32(p0[i])|uint32(p1[i])<<8|uint32(p2[i])<<16|uint32(p3[i])<<24)
		}
	case 8:
		p0, p1, p2, p3 := data[:n], data[n:2*n], data[2*n:3*n], data[3*n:4*n]
		p4, p5, p6, p7 := data[4*n:5*n], data[5*n:6*n], data[6*n:7*n], data[7*n:8*n]
		p1, p2, p3 = p1[:len(p0)], p2[:len(p0)], p3[:len(p0)]
		p4, p5, p6, p7 = p4[:len(p0)], p5[:len(p0)], p6[:len(p0)], p7[:len(p0)]
		for i := range p0 {
			binary.LittleEndian.PutUint64(dst[8*i:],
				uint64(p0[i])|uint64(p1[i])<<8|uint64(p2[i])<<16|uint64(p3[i])<<24|
					uint64(p4[i])<<32|uint64(p5[i])<<40|uint64(p6[i])<<48|uint64(p7[i])<<56)
		}
	default:
		for k := 0; k < width; k++ {
			base := k * n
			for i := 0; i < n; i++ {
				dst[i*width+k] = data[base+i]
			}
		}
	}
	copy(dst[n*width:], data[n*width:])
}
