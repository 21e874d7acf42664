// Package docstore is fairDMS's stand-in for MongoDB (paper §II-A): an
// in-memory NoSQL document store with named collections, schemaless
// JSON-like documents and concurrent reads/writes. A TCP server and a
// pooled client make it a remote store, which is how the paper hosts
// MongoDB across a 100 GbE link for the Figs. 6–8 storage study.
//
// The store supports the five Data Store requirements the paper lists:
// (i) large stores, (ii) efficient lookup via embedding/cluster indexing,
// (iii) updates for newly labeled data, (iv) parallel reads during
// training, and (v) parallel writes during data updates.
//
// It offers one query shape and one write path. A Query is a conjunction
// of equality filters (Eq), answered from a hash index when one of its
// fields has one (CreateHashIndex) and by scan otherwise, with optional
// field projection; results come back in document-ID order, and
// SampleIDs draws a seeded subset of the matches. Every write is an
// ApplyTxn batch of Add/Update/Delete ops, all-or-nothing on disk and
// within each lock stripe; reads that span stripes lock one at a time, so
// there is no cross-stripe snapshot.
package docstore

import (
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"
)

// Fields holds a document's named values. Supported value types are the
// normalized set: string, int64, float64, bool, []byte, []float64, []string.
// Insert normalizes int and int32 to int64 and float32 to float64.
type Fields map[string]any

// Doc is a stored document: an immutable ID plus its fields.
type Doc struct {
	ID string
	F  Fields
}

func init() {
	// Register field value types for the gob wire protocol and for the
	// gob WAL records older builds wrote.
	gob.Register(map[string]any{})
	gob.Register([]byte(nil))
	gob.Register([]float64(nil))
	gob.Register([]string(nil))
	gob.Register([]any(nil))
}

// normalizeValue converts ints and float32s to the canonical wire types and
// rejects unsupported types.
func normalizeValue(v any) (any, error) {
	switch x := v.(type) {
	case nil, string, int64, float64, bool, []byte, []float64, []string:
		return v, nil
	case int:
		return int64(x), nil
	case int32:
		return int64(x), nil
	case uint:
		return int64(x), nil
	case uint32:
		return int64(x), nil
	case float32:
		return float64(x), nil
	default:
		return nil, fmt.Errorf("docstore: unsupported field type %T", v)
	}
}

// normalizeFields returns a normalized copy of f.
func normalizeFields(f Fields) (Fields, error) {
	out := make(Fields, len(f))
	for k, v := range f {
		nv, err := normalizeValue(v)
		if err != nil {
			return nil, fmt.Errorf("docstore: field %q: %w", k, err)
		}
		out[k] = nv
	}
	return out, nil
}

// cloneFields deep-copies scalar fields; slices are copied shallowly since
// the store treats stored documents as immutable snapshots.
func cloneFields(f Fields) Fields {
	out := make(Fields, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// asFloat widens any numeric value — including query-supplied ints that
// never passed through insert normalization — to float64.
func asFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case uint:
		return float64(x), true
	case uint32:
		return float64(x), true
	case float32:
		return float64(x), true
	}
	return 0, false
}

// valuesEqual reports whether two normalized values are equal: numbers
// numerically (int64 against float64 included; a NaN, being neither below
// nor above any number, equals every one), strings and bools by ==, and
// anything else never.
func valuesEqual(a, b any) bool {
	if af, ok := asFloat(a); ok {
		bf, ok := asFloat(b)
		return ok && !(af < bf || af > bf)
	}
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	}
	return false
}

// indexKey renders a value as a map key for hash indexes. The value is
// normalized first so query-side ints and stored int64s share a key.
func indexKey(v any) (string, error) {
	v, err := normalizeValue(v)
	if err != nil {
		return "", err
	}
	switch x := v.(type) {
	case string:
		return "s:" + x, nil
	case int64:
		// All numerics share one key space so int64(3) and float64(3)
		// hash identically, matching valuesEqual's numeric semantics.
		return numKey(float64(x)), nil
	case float64:
		return numKey(x), nil
	case bool:
		return "b:" + strconv.FormatBool(x), nil
	default:
		return "", fmt.Errorf("docstore: cannot index value of type %T", v)
	}
}

// numKey is the index key of a number: the shortest decimal that reads
// back as x, the string fmt's %g gives, without fmt's reflection.
func numKey(x float64) string { return "n:" + strconv.FormatFloat(x, 'g', -1, 64) }

// sortIDs sorts document IDs for deterministic results.
func sortIDs(ids []string) { sort.Strings(ids) }
