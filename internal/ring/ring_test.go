package ring

import (
	"fmt"
	"testing"
)

// testKeys returns n deterministic node-ID-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("c%d-%dc%ds%dn%d", i%3, i%17, i%11, i%7, i)
	}
	return keys
}

// owner is the member name LookupIndex places key on.
func owner(r *Ring, key string) string { return r.Members()[r.LookupIndex(key)] }

func placements(r *Ring, keys []string) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = r.LookupIndex(k)
	}
	return out
}

// Placement must be a pure function of the member *set*: construction order
// and repeated members must not change where any key lands.
func TestPlacementDeterminism(t *testing.T) {
	keys := testKeys(5000)
	a := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	b := New(0, "shard-3", "shard-1", "shard-0", "shard-2")
	c := New(0, "shard-2", "shard-0", "shard-3", "shard-1", "shard-0")
	pa, pb, pc := placements(a, keys), placements(b, keys), placements(c, keys)
	for i, k := range keys {
		if pa[i] != pb[i] || pa[i] != pc[i] {
			t.Fatalf("key %q: placements diverge (order %d, shuffled %d, repeated %d)",
				k, pa[i], pb[i], pc[i])
		}
		if pa[i] < 0 || pa[i] > 3 {
			t.Fatalf("key %q: index %d out of range", k, pa[i])
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if got := New(0).LookupIndex("x"); got != -1 {
		t.Fatalf("empty ring LookupIndex = %d, want -1", got)
	}
	r := New(0, "only", "only")
	if len(r.Members()) != 1 {
		t.Fatalf("members %v, want the one distinct member", r.Members())
	}
	for _, k := range testKeys(100) {
		if got := owner(r, k); got != "only" {
			t.Fatalf("single-member ring sent %q to %q", k, got)
		}
	}
}

// Adding one member to an N-member ring must move ≈K/(N+1) keys, and every
// moved key must land on the new member (consistent hashing's defining
// property — nothing shuffles between surviving members).
func TestMinimalMovementOnAdd(t *testing.T) {
	keys := testKeys(40000)
	before := New(0, "shard-0", "shard-1", "shard-2")
	ownerBefore := make([]string, len(keys))
	for i, k := range keys {
		ownerBefore[i] = owner(before, k)
	}
	after := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	moved := 0
	for i, k := range keys {
		if got := owner(after, k); got != ownerBefore[i] {
			if got != "shard-3" {
				t.Fatalf("key %q moved %q → %q, not to the new member", k, ownerBefore[i], got)
			}
			moved++
		}
	}
	// Expect ≈ K/4; allow generous slack for hash variance.
	want := len(keys) / 4
	if moved < want/2 || moved > want*2 {
		t.Fatalf("add moved %d of %d keys, want ≈%d (K/N)", moved, len(keys), want)
	}
}

// Removing one member must move exactly that member's keys and nothing else.
func TestMinimalMovementOnRemove(t *testing.T) {
	keys := testKeys(40000)
	before := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	ownerBefore := make([]string, len(keys))
	for i, k := range keys {
		ownerBefore[i] = owner(before, k)
	}
	after := New(0, "shard-0", "shard-1", "shard-3")
	moved := 0
	for i, k := range keys {
		got := owner(after, k)
		if ownerBefore[i] == "shard-2" {
			if got == "shard-2" {
				t.Fatalf("key %q still on removed member", k)
			}
			moved++
			continue
		}
		if got != ownerBefore[i] {
			t.Fatalf("key %q moved %q → %q though its owner survived", k, ownerBefore[i], got)
		}
	}
	want := len(keys) / 4
	if moved < want/2 || moved > want*2 {
		t.Fatalf("remove moved %d of %d keys, want ≈%d (K/N)", moved, len(keys), want)
	}
}

// Virtual nodes must spread load: with DefaultReplicas every member's share
// of a large key set stays within a constant factor of fair.
func TestVirtualNodeBalance(t *testing.T) {
	keys := testKeys(40000)
	members := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	r := New(0, members...)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[owner(r, k)]++
	}
	fair := len(keys) / len(members)
	for _, m := range members {
		c := counts[m]
		if c < fair/2 || c > fair*2 {
			t.Fatalf("member %s owns %d keys, fair share %d — outside [%d, %d]",
				m, c, fair, fair/2, fair*2)
		}
	}
}
