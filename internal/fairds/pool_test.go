package fairds

import (
	"context"
	"math"
	"testing"

	"fairdms/internal/docstore"
	"fairdms/internal/embed"
	"fairdms/internal/tensor"
)

// poisoningEmbedder drains the tensor scratch pool before every pass —
// borrows what it holds, fills it with NaN and gives it back — and then
// embeds. An input its caller released before calling Embed is then NaN by
// the time the inner embedder reads it.
type poisoningEmbedder struct{ embed.Embedder }

func (p poisoningEmbedder) Embed(x *tensor.Tensor) *tensor.Tensor {
	held := make([]*tensor.Tensor, 8)
	for i := range held {
		held[i] = tensor.Borrow(x.Dim(0), x.Dim(1))
		for j := range held[i].Data() {
			held[i].Data()[j] = math.NaN()
		}
	}
	for _, b := range held {
		tensor.Release(b)
	}
	return p.Embedder.Embed(x)
}

// TestCollatedInputOutlivesTheEmbed: every service path that collates into
// a pooled tensor keeps it until the embedder is done with it, so what it
// stores and answers matches a service whose embedder never touches the
// pool — stored embeddings, nearest matches and their distances.
func TestCollatedInputOutlivesTheEmbed(t *testing.T) {
	serve := func(e embed.Embedder) (*Service, *docstore.Collection) {
		col := docstore.NewStore().Collection("peaks")
		svc, err := New(e, col, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		a, b := twoRegimes(31, 30)
		if err := svc.FitClustersK(mustCollate(t, append(a, b...)), 4); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.IngestLabeled(a, "a"); err != nil {
			t.Fatal(err)
		}
		if res, err := svc.IngestLabeledBatchContext(context.Background(), b, "b", BatchOptions{}); err != nil || len(res.Errors) > 0 {
			t.Fatalf("batch ingest: %v %v", res.Errors, err)
		}
		return svc, col
	}
	plain, _ := serve(idEmbedder{dim: 6})
	poisoned, col := serve(poisoningEmbedder{idEmbedder{dim: 6}})

	check := func(when string) {
		docs, err := col.Find(docstore.Query{Project: []string{"embedding"}})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			for _, v := range d.F["embedding"].([]float64) {
				if math.IsNaN(v) {
					t.Fatalf("%s: document %s stored a NaN embedding", when, d.ID)
				}
			}
		}
		query, _ := twoRegimes(32, 8)
		want, err := plain.NearestMatches(query, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := poisoned.NearestMatches(query, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("%s: match %d at distance %v, want %v", when, i, got[i].Dist, want[i].Dist)
			}
		}
		one, err := poisoned.NearestMatchesExcluding(context.Background(), query[:1], false, nil)
		if err != nil || one[0].Dist != want[0].Dist {
			t.Fatalf("%s: nearest one at %v (%v), want %v", when, one, err, want[0].Dist)
		}
	}
	check("after ingest")
	if _, err := plain.Reindex(plain.Embedder(), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := poisoned.Reindex(poisoned.Embedder(), 4); err != nil {
		t.Fatal(err)
	}
	check("after reindex")
}
