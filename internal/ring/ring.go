// Package ring is a consistent-hash router: it maps arbitrary string keys
// (node IDs) onto a small set of members (shards) such that placement is
// deterministic across processes and restarts, load spreads evenly via
// virtual nodes, and adding or removing one member moves only ≈K/N of the
// keys — the property that makes shard rebalance and (later) peer takeover
// cheap. It sits at the very bottom of the serving stack: routing decisions
// must be reproducible from the member list alone, so this package depends on
// nothing above the standard library.
package ring

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per member used when a caller
// passes replicas <= 0. 128 points per member keeps the max/min member load
// within a small constant factor at realistic member counts.
const DefaultReplicas = 128

// point is one virtual node: a position on the hash circle owned by a member.
type point struct {
	hash  uint64
	owner int32 // index into members
}

// Ring is an immutable consistent-hash circle. The zero value is unusable;
// construct with New. Concurrent lookups are safe.
type Ring struct {
	replicas int
	members  []string // sorted, unique
	points   []point  // sorted by hash
	// index[b] is the position in points of the first point whose hash is
	// at or after the start of bucket b, the hashes whose top bits (h>>shift)
	// are b. There are at least as many buckets as points, so a lookup
	// starts at most a point or two before its answer on average.
	index []uint32
	shift uint
}

// New builds a ring over the given members with the given virtual-node count
// per member (<= 0 selects DefaultReplicas). Member order does not matter:
// the ring sorts them, so two rings built from the same member set place
// every key identically — the determinism recovery depends on.
func New(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	r := &Ring{replicas: replicas, members: slices.Compact(sorted)}
	// Placement is a pure function of (members, replicas): virtual node j of
	// member m sits at fnv64a(m + "#" + j), ties broken by member index so
	// equal-hash collisions are still deterministic.
	for mi, m := range r.members {
		for j := 0; j < replicas; j++ {
			h := hashString(m + "#" + strconv.Itoa(j))
			r.points = append(r.points, point{hash: h, owner: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].owner < r.points[j].owner
	})
	if len(r.points) > 0 {
		k := bits.Len(uint(len(r.points) - 1)) // 2^k buckets >= points
		r.shift = uint(64 - k)
		r.index = make([]uint32, 1<<k)
		j := 0
		for b := range r.index {
			start := uint64(b) << r.shift
			for j < len(r.points) && r.points[j].hash < start {
				j++
			}
			r.index[b] = uint32(j)
		}
	}
	return r
}

// Members returns the member list in sorted order. LookupIndex values index
// into this slice. The caller must not mutate it.
func (r *Ring) Members() []string { return r.members }

// LookupIndex returns the owning member's index (into Members) for key, or
// -1 on an empty ring. Allocation-free: the router calls this once per
// ingested line.
//
//aarohi:hotpath
func (r *Ring) LookupIndex(key string) int {
	return r.lookupHash(hashString(key))
}

// lookupHash finds the first virtual node at or clockwise of h (wrapping):
// it starts at h's bucket in the index, whose points before it all hash
// below the bucket and so below h, and steps forward.
//
//aarohi:hotpath
func (r *Ring) lookupHash(h uint64) int {
	pts := r.points
	if len(pts) == 0 {
		return -1
	}
	i := int(r.index[h>>r.shift])
	for i < len(pts) && pts[i].hash < h {
		i++
	}
	if i == len(pts) {
		i = 0
	}
	return int(pts[i].owner)
}

// String describes the ring for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members × %d vnodes)", len(r.members), r.replicas)
}

// FNV-1a 64 with a splitmix64 finalizer, inlined (hash.Hash64 would allocate
// per call). Raw FNV-1a clusters on short sequential inputs like the
// "m#0", "m#1", ... vnode labels — skewing member load by 2× — so the
// avalanche mix is load-bearing, not decoration.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

//aarohi:hotpath
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

//aarohi:hotpath
func hashString(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return mix64(h)
}
