package ring

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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

// searchHash is lookupHash as a binary search over the sorted points: the
// first point at or after h, wrapping past the end.
func searchHash(r *Ring, h uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].owner)
}

// checkLookupHash holds r's indexed lookup to the binary search at every
// point's hash and either side of it, at both ends of the hash space, and at
// n random hashes.
func checkLookupHash(t *testing.T, name string, r *Ring, rng *rand.Rand, n int) {
	t.Helper()
	check := func(h uint64) {
		if got, want := r.lookupHash(h), searchHash(r, h); got != want {
			t.Fatalf("%s: lookupHash(%#x) = %d, binary search %d", name, h, got, want)
		}
	}
	check(0)
	check(math.MaxUint64)
	for _, p := range r.points {
		check(p.hash - 1)
		check(p.hash)
		check(p.hash + 1)
	}
	for i := 0; i < n; i++ {
		check(rng.Uint64())
	}
}

// TestLookupHashMatchesBinarySearch: the bucket index places every hash on
// the point a binary search over the ring finds, on rings of 1 to 64
// members (2^20 random hashes across them) and on a PeerMap's peer and
// shard rings.
func TestLookupHashMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		members := make([]string, n)
		for i := range members {
			members[i] = fmt.Sprintf("peer-%d", i)
		}
		checkLookupHash(t, fmt.Sprintf("%d members", n), New(0, members...), rng, 1<<20/64)
		if n <= 8 {
			for _, replicas := range []int{1, 3} {
				checkLookupHash(t, fmt.Sprintf("%d members, %d replicas", n, replicas), New(replicas, members...), rng, 1<<12)
			}
		}
	}
	pm := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": false, "c": true}))
	checkLookupHash(t, "peer ring", pm.ring, rng, 1<<16)
	for i, sr := range pm.shardRings {
		if sr != nil {
			checkLookupHash(t, fmt.Sprintf("shard ring of member %d", i), sr, rng, 1<<16)
		}
	}
}
