package ring

import (
	"fmt"
	"testing"
)

func testPeers(alive map[string]bool) []Peer {
	peers := make([]Peer, 0, len(alive))
	for name, a := range alive {
		peers = append(peers, Peer{Name: name, Shards: 4, Alive: a})
	}
	return peers
}

func TestPeerMapAllAliveOwnerIsHome(t *testing.T) {
	pm := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": true, "c": true}))
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("node-%04d", i)
		p := pm.Lookup(key)
		if p.Home == "" || p.Owner != p.Home {
			t.Fatalf("key %q: home %q owner %q — all-alive placement must be identity", key, p.Home, p.Owner)
		}
	}
}

func TestPeerMapDeadPeerRedirectsToSuccessor(t *testing.T) {
	all := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": true, "c": true}))
	bdead := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": false, "c": true}))
	heir := bdead.Successor("b")
	if heir == "" || heir == "b" {
		t.Fatalf("successor of dead b = %q", heir)
	}
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("node-%04d", i)
		before, after := all.Lookup(key), bdead.Lookup(key)
		// Death never re-homes a key: the hash placement is over the
		// ever-known set, so only ownership redirects.
		if before.Home != after.Home {
			t.Fatalf("key %q re-homed %q → %q on peer death", key, before.Home, after.Home)
		}
		if before.Home == "b" {
			moved++
			if after.Owner != heir {
				t.Fatalf("key %q homed on dead b owned by %q, want heir %q", key, after.Owner, heir)
			}
		} else if after.Owner != before.Owner {
			t.Fatalf("key %q not homed on b changed owner %q → %q", key, before.Owner, after.Owner)
		}
	}
	if moved == 0 {
		t.Fatal("no keys homed on b — test vacuous")
	}
}

func TestPeerMapHeirChain(t *testing.T) {
	// With b AND its immediate successor both dead, b's keys must chain to
	// the next live peer — and every live peer must agree (determinism is
	// what prevents double ownership after convergence).
	pm := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": false, "c": false, "d": true}))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("node-%04d", i)
		p := pm.Lookup(key)
		if p.Owner != "a" && p.Owner != "d" {
			t.Fatalf("key %q owned by %q, want a live peer", key, p.Owner)
		}
	}
	if h := pm.Successor("b"); h != "c" && h != "d" && h != "a" {
		t.Fatalf("Successor(b) = %q", h)
	}
	if got, ok := pm.Peer("c"); !ok || got.Alive {
		t.Fatalf("Peer(c) = %+v, %v", got, ok)
	}
}

func TestPeerMapAllDead(t *testing.T) {
	pm := NewPeerMap(0, testPeers(map[string]bool{"a": false, "b": false}))
	if pm.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", pm.Live())
	}
	if p := pm.Lookup("node-1"); p.Owner != "" || p.Home == "" {
		t.Fatalf("all-dead lookup = %+v, want home set and owner empty", p)
	}
	if s := pm.Successor("a"); s != "" {
		t.Fatalf("Successor(a) = %q, want empty", s)
	}
}

func TestPeerMapLookupShardMatchesRouterPlacement(t *testing.T) {
	// Lookup's shard must be the exact placement the home peer's shard
	// Router computes, or a forwarded line — or a dead peer's line fed into
	// its adopted shards — would land on the wrong shard and lose its node's
	// partial match. Replicate the Router's construction here, for homes of
	// every shard count in one map.
	peers := []Peer{
		{Name: "a", Shards: 1, Alive: true},
		{Name: "b", Shards: 2, Alive: false},
		{Name: "c", Shards: 4, Alive: true},
	}
	routers := map[string]*Ring{}
	for _, p := range peers {
		members := make([]string, p.Shards)
		for i := range members {
			members[i] = ShardMemberName(i)
		}
		routers[p.Name] = New(0, members...)
	}
	pm := NewPeerMap(0, peers)
	used := map[string]map[int]bool{}
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("node-%04d", i)
		pl := pm.Lookup(key)
		if got, want := pl.Shard, routers[pl.Home].LookupIndex(key); got != want {
			t.Fatalf("key %q homed on %q: Lookup shard %d, router %d", key, pl.Home, got, want)
		}
		if used[pl.Home] == nil {
			used[pl.Home] = map[int]bool{}
		}
		used[pl.Home][pl.Shard] = true
	}
	for _, p := range peers {
		if len(used[p.Name]) != p.Shards {
			t.Fatalf("peer %q (%d shards): keys landed on shards %v", p.Name, p.Shards, used[p.Name])
		}
	}
}

func TestShardMemberName(t *testing.T) {
	for _, tc := range []struct {
		i    int
		want string
	}{{0, "shard-000"}, {7, "shard-007"}, {42, "shard-042"}, {123, "shard-123"}, {-1, "shard-000"}} {
		if got := ShardMemberName(tc.i); got != tc.want {
			t.Fatalf("ShardMemberName(%d) = %q, want %q", tc.i, got, tc.want)
		}
	}
}

func TestPeerMapLookupAllocs(t *testing.T) {
	pm := NewPeerMap(0, testPeers(map[string]bool{"a": true, "b": false, "c": true}))
	key := "node-0042"
	if n := testing.AllocsPerRun(200, func() {
		if p := pm.Lookup(key); p.Owner == "" {
			t.Fatal("no owner")
		}
	}); n != 0 {
		t.Fatalf("Lookup allocates %v/op, hot path must be 0", n)
	}
}
