package dmscluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestRingDeterminism pins the property every tier relies on: two rings
// built alike route every key alike — a router restart (or a second
// router instance) must not move documents.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(5)
	b := NewRing(5)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if a.Successors(key)[0] != b.Successors(key)[0] {
			t.Fatalf("key %q owner differs across identical rings: %d vs %d", key, a.Successors(key)[0], b.Successors(key)[0])
		}
	}
}

// TestRingOwnersArePinned holds the document → shard mapping to values
// recorded once, not to a second ring built by the same code: a change to
// the hash, the vnode labels or the vnode count re-homes stored documents
// on upgrade, and only a recorded mapping catches that. For each shard
// count the digest is sha256 over the owner byte of doc-0 … doc-999.
func TestRingOwnersArePinned(t *testing.T) {
	digests := map[int]string{
		1: "541b3e9daa09b20bf85fa273e5cbd3e80185aa4ec298e765db87742b70138a53",
		2: "ec681037f779a0bbc138044d4175f6600491408ff20fb02e4e738c1a0a26a6da",
		3: "c58c5f440892d9e4457ef470f69704801fa39c90bbf5253e55f1ce3fdd3a8717",
		4: "699027b3066856c361702009e2f5ad92f1cae783ade72b8f860d45981cc05286",
		5: "0ac5a92397139aedcfb443b30d175771d579a78abe4150da383e585eb74b2b52",
	}
	for n, want := range digests {
		r := NewRing(n)
		h := sha256.New()
		for i := 0; i < 1000; i++ {
			h.Write([]byte{byte(r.Successors(fmt.Sprintf("doc-%d", i))[0])})
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
			t.Errorf("n=%d: owner digest %s, recorded %s: documents would move to other shards", n, got, want)
		}
	}
	for _, c := range []struct {
		n     int
		key   string
		owner int
	}{
		{2, "doc-0", 1},
		{3, "doc-0", 2},
		{4, "doc-1", 0},
		{5, "doc-4", 4},
		{5, "doc-5", 3},
		{5, "doc-8", 1},
	} {
		if got := NewRing(c.n).Successors(c.key)[0]; got != c.owner {
			t.Errorf("n=%d key %q: owner %d, recorded %d", c.n, c.key, got, c.owner)
		}
	}
}

// TestRingDistribution checks virtual nodes keep the load split usable:
// no shard owns more than twice its fair share over a large key set.
func TestRingDistribution(t *testing.T) {
	const n, keys = 4, 20000
	r := NewRing(n)
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
	r := NewRing(n)
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
