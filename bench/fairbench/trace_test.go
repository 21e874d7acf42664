package main

import "testing"

// One parent, 0–100, with children that overlap each other (fairds fans
// lookups out concurrently) and one that outlives it.
func fanOut() []span {
	return []span{
		{ID: 0, Parent: -1, Layer: layerClient, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: layerAPI, Name: "handler", Start: 10, End: 90},
		{ID: 2, Parent: 1, Layer: layerStore, Start: 20, End: 50},
		{ID: 3, Parent: 1, Layer: layerStore, Start: 30, End: 60}, // overlaps 2 on 30–50
		{ID: 4, Parent: 1, Layer: layerCodec, Start: 70, End: 95}, // ends after its parent
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	self := selfTimes(fanOut())
	// Handler 10–90 = 80; children cover 20–60 and 70–90 (clipped) = 60.
	// Summing child durations instead would subtract 30+30+25 = 85.
	if got := self[1]; got != 20 {
		t.Errorf("handler self time = %d, want 20 (duration minus the union of children)", got)
	}
	if got := self[0]; got != 20 {
		t.Errorf("client self time = %d, want 20", got)
	}
	if self[2] != 30 || self[3] != 30 {
		t.Errorf("leaf self times = %d, %d, want their durations", self[2], self[3])
	}
}

func TestAttributionAddsUpToTheClientSpan(t *testing.T) {
	by, wall := attribute(fanOut())
	if wall != 100 {
		t.Fatalf("wall = %d, want 100", wall)
	}
	total := int64(0)
	for _, ns := range by {
		total += ns
	}
	if total != wall {
		t.Errorf("layer times add up to %d, want the whole client span %d: %v", total, wall, by)
	}
	// client: 0–10 and 90–100. handler: 10–20, 60–70. docstore: 20–60 once,
	// although two fetches overlap on 30–50. codec: 70–90, clipped.
	want := map[string]int64{layerClient: 20, layerAPI: 20, layerStore: 40, layerCodec: 20}
	for layer, ns := range want {
		if by[layer] != ns {
			t.Errorf("%s got %d ns, want %d (all: %v)", layer, by[layer], ns, by)
		}
	}
}

func TestAttributionSplitsConcurrentLayers(t *testing.T) {
	by, _ := attribute([]span{
		{ID: 0, Parent: -1, Layer: layerClient, Start: 0, End: 40},
		{ID: 1, Parent: 0, Layer: layerEmbed, Start: 0, End: 40},
		{ID: 2, Parent: 0, Layer: layerIndex, Start: 0, End: 40},
		{ID: 3, Parent: -1, Layer: layerDS, Direct: true, Start: 50, End: 90}, // not serving time
	})
	if by[layerEmbed] != 20 || by[layerIndex] != 20 || by[layerDS] != 0 {
		t.Errorf("concurrent layers should halve the instant, direct calls stay out: %v", by)
	}
}

func TestTracerParentsAndOffSwitch(t *testing.T) {
	tr := newTracer()
	if id := tr.beginOp("nearest"); id != -1 {
		t.Fatalf("a tracer that is off recorded span %d", id)
	}
	tr.on.Store(true)
	root := tr.beginOp("nearest")
	h := tr.beginHandler(layerAPI, "handler", "a")
	leaf := tr.begin(layerEmbed, "embed", "a")
	other := tr.begin(layerEmbed, "embed", "b") // node b has no open handler
	for _, id := range []int{other, leaf, h, root} {
		tr.end(id, 1, 0)
	}
	d := tr.beginDirect(layerDS, "nearest", "a")
	under := tr.begin(layerIndex, "nearest", "a")
	tr.end(under, 1, 0)
	tr.end(d, 1, 0)
	got := tr.snapshot()
	wantParents := []int{-1, root, h, root, -1, d}
	for i, s := range got {
		if s.Parent != wantParents[i] {
			t.Errorf("span %d (%s/%s) has parent %d, want %d", i, s.Layer, s.Name, s.Parent, wantParents[i])
		}
	}
	if !got[5].Direct || got[2].Direct {
		t.Error("only spans under a direct call are marked direct")
	}
}
