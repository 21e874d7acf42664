package dmscluster

import (
	"fmt"
	"testing"
)

// TestRingDeterminism pins the property every tier relies on: two rings
// built alike route every key alike — a router restart (or a second
// router instance) must not move documents.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(5, 0)
	b := NewRing(5, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if a.Successors(key)[0] != b.Successors(key)[0] {
			t.Fatalf("key %q owner differs across identical rings: %d vs %d", key, a.Successors(key)[0], b.Successors(key)[0])
		}
	}
}

// TestRingDistribution checks virtual nodes keep the load split usable:
// no shard owns more than twice its fair share over a large key set.
func TestRingDistribution(t *testing.T) {
	const n, keys = 4, 20000
	r := NewRing(n, 0)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.Successors(fmt.Sprintf("doc-%d", i))[0]]++
	}
	fair := keys / n
	for shard, c := range counts {
		if c > 2*fair || c < fair/2 {
			t.Fatalf("shard %d owns %d of %d keys (fair share %d): distribution too skewed: %v",
				shard, c, keys, fair, counts)
		}
	}
}

// TestRingSuccessors checks the fail-open fallback order: every key's
// successor list covers all shards exactly once, starting at the owner.
func TestRingSuccessors(t *testing.T) {
	const n = 5
	r := NewRing(n, 0)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("doc-%d", i)
		succ := r.Successors(key)
		if len(succ) != n {
			t.Fatalf("key %q: successor list has %d entries, want %d", key, len(succ), n)
		}
		if owner := r.owner[r.find(hash64(key))]; succ[0] != owner {
			t.Fatalf("key %q: successors start at %d, owner is %d", key, succ[0], owner)
		}
		seen := make(map[int]bool)
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %q: shard %d appears twice in %v", key, s, succ)
			}
			seen[s] = true
		}
	}
}

// TestContentKey pins routing as a pure content function: identical
// payloads agree, any payload or label change moves the key.
func TestContentKey(t *testing.T) {
	data := []byte{1, 2, 3, 4}
	label := []float64{0.5, 1.5}
	k1 := ContentKey(data, label)
	k2 := ContentKey([]byte{1, 2, 3, 4}, []float64{0.5, 1.5})
	if k1 != k2 {
		t.Fatalf("identical content produced different keys: %q vs %q", k1, k2)
	}
	if ContentKey([]byte{1, 2, 3, 5}, label) == k1 {
		t.Fatal("payload change did not move the content key")
	}
	if ContentKey(data, []float64{0.5, 1.6}) == k1 {
		t.Fatal("label change did not move the content key")
	}
	if ContentKey(data, nil) == k1 {
		t.Fatal("dropping labels did not move the content key")
	}
}
