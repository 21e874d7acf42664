package obs

import (
	"bytes"
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
