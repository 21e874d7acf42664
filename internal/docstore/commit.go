package docstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// A WAL record's payload is one walCommit in a typed binary layout:
//
//	record := magic collection:str nextID:uvarint nops:uvarint op*
//	op     := kind:u8 id:str nfields:uvarint field*
//	field  := key:str tag:u8 value
//	str    := len:uvarint bytes
//
// A value is nothing for tagNil, str for tagString and tagBytes, 8
// little-endian bytes for tagInt64 (two's complement) and tagFloat64 (the
// IEEE 754 bit pattern), one byte 0 or 1 for tagBool, and a uvarint count
// followed by that many 8-byte bit patterns (tagFloat64s) or strs
// (tagStrings) for the slices. The tags cover exactly the types
// normalizeValue admits.
//
// Builds before this layout wrote gob-encoded commits. A gob message
// starts with its length, whose first byte is below 0x80 or above 0xF7,
// so commitMagic can never open one: a payload without it is decoded as
// gob. Nothing writes gob any more, and the next Compact rewrites a
// directory's state in this layout.
const commitMagic = 0xC7

const (
	tagNil byte = iota
	tagString
	tagInt64
	tagFloat64
	tagBool
	tagBytes
	tagFloat64s
	tagStrings
)

// encodeCommit writes rec as a binary commit record, the payload of one
// WAL record. It sizes the record first, so the payload is its one
// allocation.
func encodeCommit(rec *walCommit) ([]byte, error) {
	n, err := commitSize(rec)
	if err != nil {
		return nil, fmt.Errorf("docstore: encoding wal commit: %w", err)
	}
	b := make([]byte, 0, n)
	b = append(b, commitMagic)
	b = appendStr(b, rec.Collection)
	b = binary.AppendUvarint(b, rec.NextID)
	b = binary.AppendUvarint(b, uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		b = append(b, byte(op.Kind))
		b = appendStr(b, op.ID)
		b = binary.AppendUvarint(b, uint64(len(op.F)))
		for k, v := range op.F {
			b = appendStr(b, k)
			b = appendValue(b, v)
		}
	}
	return b, nil
}

// commitSize is the encoded length of rec, or an error naming the first
// value outside the normalized types.
func commitSize(rec *walCommit) (int, error) {
	n := 1 + strSize(rec.Collection) + uvarintSize(rec.NextID) + uvarintSize(uint64(len(rec.Ops)))
	for _, op := range rec.Ops {
		n += 1 + strSize(op.ID) + uvarintSize(uint64(len(op.F)))
		for k, v := range op.F {
			vn, ok := valueSize(v)
			if !ok {
				return 0, fmt.Errorf("field %q: unsupported type %T", k, v)
			}
			n += strSize(k) + 1 + vn
		}
	}
	return n, nil
}

// valueSize is the encoded length of v after its tag.
func valueSize(v any) (int, bool) {
	switch x := v.(type) {
	case nil:
		return 0, true
	case string:
		return strSize(x), true
	case int64, float64:
		return 8, true
	case bool:
		return 1, true
	case []byte:
		return uvarintSize(uint64(len(x))) + len(x), true
	case []float64:
		return uvarintSize(uint64(len(x))) + 8*len(x), true
	case []string:
		n := uvarintSize(uint64(len(x)))
		for _, s := range x {
			n += strSize(s)
		}
		return n, true
	}
	return 0, false
}

// appendValue appends v's tag and value; commitSize has vetted its type.
func appendValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case string:
		return appendStr(append(b, tagString), x)
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, tagInt64), uint64(x))
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat64), math.Float64bits(x))
	case bool:
		if x {
			return append(b, tagBool, 1)
		}
		return append(b, tagBool, 0)
	case []byte:
		b = binary.AppendUvarint(append(b, tagBytes), uint64(len(x)))
		return append(b, x...)
	case []float64:
		b = binary.AppendUvarint(append(b, tagFloat64s), uint64(len(x)))
		for _, f := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		return b
	case []string:
		b = binary.AppendUvarint(append(b, tagStrings), uint64(len(x)))
		for _, s := range x {
			b = appendStr(b, s)
		}
		return b
	}
	panic(fmt.Sprintf("docstore: appendValue(%T) after commitSize", v))
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func strSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

func uvarintSize(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// decodeCommit decodes one WAL record's payload: a binary commit record,
// or a gob-encoded commit from a log an older build wrote.
func decodeCommit(p []byte) (walCommit, error) {
	if len(p) > 0 && p[0] == commitMagic {
		return decodeBinaryCommit(p)
	}
	return decodeGobCommit(p)
}

var errShortRecord = errors.New("record ends early")

// commitReader walks a binary commit record. Every count and length is
// checked against the bytes left before anything is allocated for it, so
// a hostile record costs at most its own size in memory.
type commitReader struct {
	b []byte
	// keys interns field names: the documents of one commit nearly always
	// share them, and the lookup by string(bytes) does not allocate.
	keys map[string]string
}

func (r *commitReader) u8() (byte, error) {
	if len(r.b) == 0 {
		return 0, errShortRecord
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c, nil
}

func (r *commitReader) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	r.b = r.b[n:]
	return x, nil
}

// count reads a count of items that take at least min bytes each.
func (r *commitReader) count(min int) (int, error) {
	x, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if x > uint64(len(r.b)/min) {
		return 0, fmt.Errorf("count %d exceeds the %d bytes left", x, len(r.b))
	}
	return int(x), nil
}

func (r *commitReader) bytes() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s, nil
}

func (r *commitReader) str() (string, error) {
	s, err := r.bytes()
	return string(s), err
}

func (r *commitReader) key() (string, error) {
	s, err := r.bytes()
	if err != nil {
		return "", err
	}
	if k, ok := r.keys[string(s)]; ok {
		return k, nil
	}
	k := string(s)
	r.keys[k] = k
	return k, nil
}

func (r *commitReader) u64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, errShortRecord
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x, nil
}

func (r *commitReader) value() (any, error) {
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagString:
		return r.str()
	case tagInt64:
		x, err := r.u64()
		return int64(x), err
	case tagFloat64:
		x, err := r.u64()
		return math.Float64frombits(x), err
	case tagBool:
		c, err := r.u8()
		if err == nil && c > 1 {
			err = fmt.Errorf("bool byte %d", c)
		}
		return c == 1, err
	case tagBytes:
		s, err := r.bytes()
		return bytes.Clone(s), err
	case tagFloat64s:
		n, err := r.count(8)
		if err != nil {
			return nil, err
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
		}
		r.b = r.b[8*n:]
		return fs, nil
	case tagStrings:
		n, err := r.count(1)
		if err != nil {
			return nil, err
		}
		ss := make([]string, n)
		for i := range ss {
			if ss[i], err = r.str(); err != nil {
				return nil, err
			}
		}
		return ss, nil
	}
	return nil, fmt.Errorf("unknown tag %d", tag)
}

// decodeBinaryCommit decodes a record encodeCommit wrote. It refuses a
// record that ends early, holds an unknown tag, names a field twice in
// one op or has bytes after its last op.
func decodeBinaryCommit(p []byte) (walCommit, error) {
	c, err := readCommit(&commitReader{b: p[1:], keys: make(map[string]string)})
	if err != nil {
		return walCommit{}, fmt.Errorf("docstore: decoding wal commit: %w", err)
	}
	return c, nil
}

func readCommit(r *commitReader) (walCommit, error) {
	var c walCommit
	var err error
	if c.Collection, err = r.str(); err != nil {
		return c, err
	}
	if c.NextID, err = r.uvarint(); err != nil {
		return c, err
	}
	// An op is at least a kind, an empty ID and a zero field count.
	nops, err := r.count(3)
	if err != nil {
		return c, err
	}
	c.Ops = make([]TxnOp, nops)
	for i := range c.Ops {
		op := &c.Ops[i]
		kind, err := r.u8()
		if err != nil {
			return c, err
		}
		op.Kind = TxnKind(kind)
		if op.ID, err = r.str(); err != nil {
			return c, err
		}
		// A field is at least an empty key and a tag.
		nf, err := r.count(2)
		if err != nil {
			return c, err
		}
		if nf == 0 {
			continue
		}
		op.F = make(Fields, nf)
		for range nf {
			k, err := r.key()
			if err != nil {
				return c, err
			}
			if op.F[k], err = r.value(); err != nil {
				return c, fmt.Errorf("op %d field %q: %w", i, k, err)
			}
		}
		if len(op.F) != nf {
			return c, fmt.Errorf("op %d names a field twice", i)
		}
	}
	if len(r.b) > 0 {
		return c, fmt.Errorf("%d bytes after the last op", len(r.b))
	}
	return c, nil
}

// decodeGobCommit decodes a commit an older build gob-encoded. Its field
// values are normalized as ApplyTxn would have, so whatever replay loads
// the binary encoder can write back in the next checkpoint.
func decodeGobCommit(p []byte) (walCommit, error) {
	var c walCommit
	if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&c); err != nil {
		return walCommit{}, fmt.Errorf("docstore: decoding gob wal commit: %w", err)
	}
	for i, op := range c.Ops {
		if op.F == nil {
			continue
		}
		nf, err := normalizeFields(op.F)
		if err != nil {
			return walCommit{}, fmt.Errorf("docstore: decoding gob wal commit: op %d: %w", i, err)
		}
		c.Ops[i].F = nf
	}
	return c, nil
}
