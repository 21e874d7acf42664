package main

import (
	"reflect"
	"testing"
)

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	s := specByName("serve_scan")
	a := genServeOps(stream(7, streamOps), 500, s.query, nil)
	b := genServeOps(stream(7, streamOps), 500, s.query, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different op sequences")
	}
	c := genServeOps(stream(8, streamOps), 500, s.query, nil)
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same op sequence")
	}
	// cluster_serve runs a prefix of the serve_scan sequence.
	short := genServeOps(stream(7, streamOps), 120, s.query, nil)
	if !reflect.DeepEqual(short, a[:120]) {
		t.Fatal("a shorter sequence is not a prefix of a longer one")
	}
}

func TestOpSequenceShape(t *testing.T) {
	hot := randomPDFs(stream(1, streamHotPDFs), 16)
	ops := genServeOps(stream(1, streamOps), 9000, 8, hot)
	counts := map[opKind]int{}
	for _, o := range ops {
		counts[o.kind]++
		switch o.kind {
		case opRecommend:
			if err := o.pdf.Validate(); err != nil {
				t.Fatalf("recommend PDF invalid: %v", err)
			}
		default:
			if o.lo < 0 || o.lo+8 > queryPoolSize {
				t.Fatalf("window %d leaves the query pool", o.lo)
			}
		}
	}
	// nearest 4 : certainty 2 : recommend 2 : lookup 1, within sampling noise.
	for kind, want := range map[opKind]int{opNearest: 4000, opCertainty: 2000, opRecommend: 2000, opLookup: 1000} {
		if got := counts[kind]; got < want*9/10 || got > want*11/10 {
			t.Errorf("%s drawn %d times in 9000, want about %d", kind, got, want)
		}
	}
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	s := specByName("serve_hot")
	a, b := genServeInputs(s, 3, 100), genServeInputs(s, 3, 100)
	if !reflect.DeepEqual(a.corpus[17], b.corpus[17]) || !reflect.DeepEqual(a.zooPDFs, b.zooPDFs) || !reflect.DeepEqual(a.warm, b.warm) {
		t.Fatal("the same seed gave different inputs")
	}
	// A longer run must not change the corpus it is measured against.
	c := genServeInputs(s, 3, 400)
	if !reflect.DeepEqual(a.corpus[17], c.corpus[17]) || !reflect.DeepEqual(a.queries[5], c.queries[5]) {
		t.Fatal("the op count changed the corpus or the query pool")
	}
}
