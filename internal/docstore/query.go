package docstore

// Filter is one equality predicate on a document field: it matches the
// documents whose Field equals Value.
type Filter struct {
	Field string
	Value any
}

// Query is a conjunction of equality filters with optional field
// projection. Results come back in document-ID order.
type Query struct {
	Filters []Filter
	// Project restricts returned documents to these fields (IDs are always
	// included). Empty means all fields. Projection reduces copy and wire
	// cost for scans that only need an index-like field (e.g. embeddings).
	Project []string
}

// Eq builds an equality filter.
func Eq(field string, value any) Filter { return Filter{Field: field, Value: value} }

// matches evaluates the filter against a document.
func (f Filter) matches(d *Doc) bool {
	v, ok := d.F[f.Field]
	return ok && valuesEqual(v, f.Value)
}
