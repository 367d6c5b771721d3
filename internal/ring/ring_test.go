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

func placements(r *Ring, keys []string) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		out[i] = r.LookupIndex(k)
	}
	return out
}

// Placement must be a pure function of the member *set* — construction order,
// rebuilt-vs-fresh, and incremental Add must all agree.
func TestPlacementDeterminism(t *testing.T) {
	keys := testKeys(5000)
	a := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	b := New(0, "shard-3", "shard-1", "shard-0", "shard-2")
	c := New(0)
	for _, m := range []string{"shard-2", "shard-0", "shard-3", "shard-1"} {
		c.Add(m)
	}
	pa, pb, pc := placements(a, keys), placements(b, keys), placements(c, keys)
	for i, k := range keys {
		if pa[i] != pb[i] || pa[i] != pc[i] {
			t.Fatalf("key %q: placements diverge (order %d, shuffled %d, incremental %d)",
				k, pa[i], pb[i], pc[i])
		}
		if pa[i] < 0 || pa[i] > 3 {
			t.Fatalf("key %q: index %d out of range", k, pa[i])
		}
	}
	if got, want := a.Lookup(keys[0]), a.Members()[pa[0]]; got != want {
		t.Fatalf("Lookup(%q) = %q, want %q", keys[0], got, want)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	r := New(0)
	if got := r.LookupIndex("x"); got != -1 {
		t.Fatalf("empty ring LookupIndex = %d, want -1", got)
	}
	if got := r.Lookup("x"); got != "" {
		t.Fatalf("empty ring Lookup = %q, want \"\"", got)
	}
	r.Add("only")
	for _, k := range testKeys(100) {
		if got := r.Lookup(k); got != "only" {
			t.Fatalf("single-member ring sent %q to %q", k, got)
		}
	}
	if r.Add("only") {
		t.Fatal("duplicate Add reported true")
	}
	if r.Remove("absent") {
		t.Fatal("Remove of absent member reported true")
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
		ownerBefore[i] = before.Lookup(k)
	}
	after := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	moved := 0
	for i, k := range keys {
		if got := after.Lookup(k); got != ownerBefore[i] {
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
	r := New(0, "shard-0", "shard-1", "shard-2", "shard-3")
	ownerBefore := make([]string, len(keys))
	for i, k := range keys {
		ownerBefore[i] = r.Lookup(k)
	}
	if !r.Remove("shard-2") {
		t.Fatal("Remove(shard-2) reported false")
	}
	moved := 0
	for i, k := range keys {
		got := r.Lookup(k)
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
		counts[r.Lookup(k)]++
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
