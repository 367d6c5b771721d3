package ring

// Peer-aware placement: a PeerMap extends the consistent-hash ring from
// "node ID → local shard" to "node ID → owning peer → that peer's shard".
// Placement is computed over every peer that has EVER been a member (dead
// ones included) so that a peer's death does not reshuffle the whole key
// space: a dead peer's keys stay hashed to it and are then redirected, as a
// block, to its heir — the next live peer clockwise in member order — which
// is exactly the peer the shipping layer has been replicating its journal
// to. The shard component is computed against the HOME peer's shard count,
// because a takeover adopts the dead peer's shards with their layout intact.
//
// A PeerMap is immutable: membership changes build a new one (the gossip
// layer swaps an atomic pointer), so lookups are lock-free and safe from any
// goroutine.

// Peer describes one daemon process for placement purposes.
type Peer struct {
	// Name is the peer's unique cluster identity (ring member name).
	Name string
	// Shards is the peer's local shard count (its shard-level sub-ring).
	Shards int
	// Alive is false once the membership layer has confirmed the peer dead
	// (or it left); its keys then resolve to its heir.
	Alive bool
}

// Placement is one key's resolved position in the cluster.
type Placement struct {
	// Home is the peer the key hashes to — the peer whose shard layout and
	// parse state apply, alive or not.
	Home string
	// Owner is the live peer responsible for the key right now: Home itself
	// while it lives, its heir after death ("" when no peer is alive).
	Owner string
	// Shard is the key's shard index within Home's local shard set.
	Shard int
}

// PeerMap is an immutable two-level placement table. Construct with
// NewPeerMap; build a fresh one on every membership change.
type PeerMap struct {
	ring  *Ring
	peers map[string]Peer
	// resolved[i] is the live owner of member i (takeover chain applied).
	resolved []string
	// shardRings[i] is member i's shard sub-ring, nil when it has one shard.
	// Every peer with S shards shares the identical ring over
	// shard-000..shard-S-1, the same placement function the daemon's local
	// Router uses.
	shardRings []*Ring
	live       int
}

// ShardMemberName is the ring member name of local shard i — zero-padded so
// the sorted member list indexes shards in numeric order. The shard Router
// names its members with it, so a forwarded line lands on the shard its owner
// would pick locally.
func ShardMemberName(i int) string {
	// fmt.Sprintf-free: this runs only at ring construction, but keeping the
	// format in one place matters more than speed.
	const digits = "0123456789"
	if i < 0 {
		i = 0
	}
	return "shard-" + string([]byte{digits[i/100%10], digits[i/10%10], digits[i%10]})
}

// NewPeerMap builds the placement table over the full ever-known peer set.
// replicas <= 0 selects DefaultReplicas for the peer ring.
func NewPeerMap(replicas int, peers []Peer) *PeerMap {
	pm := &PeerMap{peers: make(map[string]Peer, len(peers))}
	names := make([]string, 0, len(peers))
	for _, p := range peers {
		if p.Shards <= 0 {
			p.Shards = 1
		}
		if _, dup := pm.peers[p.Name]; dup {
			continue
		}
		pm.peers[p.Name] = p
		names = append(names, p.Name)
		if p.Alive {
			pm.live++
		}
	}
	pm.ring = New(replicas, names...)
	// Resolve every member's live owner once: a dead peer's heir is the next
	// live peer clockwise in sorted member order — deterministic from the
	// membership view alone, so every peer with a converged view computes the
	// same single owner for every key.
	members := pm.ring.Members()
	pm.resolved = make([]string, len(members))
	pm.shardRings = make([]*Ring, len(members))
	byCount := make(map[int]*Ring)
	for i, name := range members {
		pm.resolved[i] = pm.heirOf(members, i, name)
		n := pm.peers[name].Shards
		if n == 1 {
			continue
		}
		if byCount[n] == nil {
			shards := make([]string, n)
			for j := range shards {
				shards[j] = ShardMemberName(j)
			}
			byCount[n] = New(0, shards...)
		}
		pm.shardRings[i] = byCount[n]
	}
	return pm
}

// heirOf resolves member i's live owner: itself when alive, else the first
// live member scanning clockwise from it ("" when none is alive).
func (pm *PeerMap) heirOf(members []string, i int, name string) string {
	if pm.peers[name].Alive {
		return name
	}
	for step := 1; step < len(members); step++ {
		next := members[(i+step)%len(members)]
		if pm.peers[next].Alive {
			return next
		}
	}
	return ""
}

// Live reports the number of live peers.
func (pm *PeerMap) Live() int { return pm.live }

// Peers returns the known peers in sorted name order.
func (pm *PeerMap) Peers() []Peer {
	out := make([]Peer, 0, len(pm.peers))
	for _, name := range pm.ring.Members() {
		out = append(out, pm.peers[name])
	}
	return out
}

// Peer returns the named peer's record.
func (pm *PeerMap) Peer(name string) (Peer, bool) {
	p, ok := pm.peers[name]
	return p, ok
}

// Lookup places one key: it hashes the key once and finds both the home
// peer and, with the same hash, the key's shard within the home peer's shard
// set — the placement the home peer's Router applies, so forward-then-route,
// route-locally and route-into-an-adopted-shard all agree. Allocation-free:
// the forwarding hot path calls this once per ingested line.
//
//aarohi:hotpath
func (pm *PeerMap) Lookup(key string) Placement {
	h := hashString(key)
	i := pm.ring.lookupHash(h)
	if i < 0 {
		return Placement{Shard: -1}
	}
	pl := Placement{Home: pm.ring.members[i], Owner: pm.resolved[i]}
	if sr := pm.shardRings[i]; sr != nil {
		pl.Shard = sr.lookupHash(h)
	}
	return pl
}

// Successor returns the next live peer clockwise from name in sorted member
// order, excluding name itself ("" when no other peer is alive). This is the
// peer that would adopt name's shards — the shipping layer targets it.
func (pm *PeerMap) Successor(name string) string {
	members := pm.ring.Members()
	for i, m := range members {
		if m != name {
			continue
		}
		for step := 1; step < len(members); step++ {
			next := members[(i+step)%len(members)]
			if next != name && pm.peers[next].Alive {
				return next
			}
		}
		return ""
	}
	return ""
}
