package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// FuzzParseExposition feeds arbitrary bytes to the exposition parser (seed
// corpus: the registry's own output here, hand-written edge cases in
// testdata/fuzz/FuzzParseExposition). Whatever it accepts, its rendering
// must parse again, and rendering that second parse must give the same
// bytes: the router re-exposes every shard's families through this pair,
// so one pass must reach the fixed point.
func FuzzParseExposition(f *testing.F) {
	escapes := NewRegistry()
	escapes.CounterVec("dms_weird_total", "Help with \\backslash and\nnewline.", "path").With("a\"b\\c\nd").Add(1)
	for _, reg := range []*Registry{buildTestRegistry(), escapes} {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseExposition(data)
		if err != nil {
			return
		}
		once := RenderExposition(fams)
		again, err := ParseExposition(once)
		if err != nil {
			t.Fatalf("rendering of an accepted exposition does not parse: %v\n%q", err, once)
		}
		if twice := RenderExposition(again); !bytes.Equal(twice, once) {
			t.Fatalf("render is not a fixed point:\n once %q\ntwice %q", once, twice)
		}
	})
}

// FuzzParseSLOs feeds arbitrary -slo specs to the parser (seed corpus in
// testdata/fuzz/FuzzParseSLOs): it returns objectives or an error and
// never panics.
func FuzzParseSLOs(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		ParseSLOs(spec)
	})
}

// FuzzTraceHeader feeds arbitrary trace headers and span trailers to the
// parsers a server and a client run on every traced request (seed corpus
// in testdata/fuzz/FuzzTraceHeader). The parsed id is at most 32
// characters of [0-9a-f-] and survives a format/parse round trip; any
// trailer decodes or is refused without a panic, and grafting what
// decodes at any index keeps every parent -1 or an earlier index, so a
// hostile trailer cannot make the merged tree a cycle.
func FuzzTraceHeader(f *testing.F) {
	tr := NewTrace("aa11", true)
	ctx, root := StartSpan(NewContext(context.Background(), tr), "client_request")
	_, rt := StartSpan(ctx, "http_roundtrip")
	rt.End()
	root.End()
	local := tr.Dump()

	f.Fuzz(func(t *testing.T, header, trailer string, at int, sample bool) {
		id, _ := ParseTraceHeader(header)
		if len(id) > 32 || strings.Trim(id, "0123456789abcdef-") != "" {
			t.Fatalf("ParseTraceHeader(%q) id = %q", header, id)
		}
		if got, s := ParseTraceHeader(FormatTraceHeader(id, sample)); got != id || s != sample {
			t.Fatalf("round trip of (%q, %v) gave (%q, %v)", id, sample, got, s)
		}
		remote, ok := DecodeDump(trailer)
		if !ok {
			return
		}
		merged := Graft(local, at, remote)
		for i, sp := range merged.Spans {
			if sp.Parent != -1 && (sp.Parent < 0 || sp.Parent >= i) {
				t.Fatalf("grafted at %d, span %d (%s) has parent %d", at, i, sp.Name, sp.Parent)
			}
		}
	})
}
