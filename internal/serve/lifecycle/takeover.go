package lifecycle

import (
	"sort"
	"time"

	"repro/internal/serve/shard"
)

// Takeover: when the cluster layer confirms a peer dead, the heir daemon
// adopts the dead peer's shards — each one rebuilt from the WAL-shipped
// mirror exactly the way Boot rebuilds a local shard after a crash
// (snapshot restore + journal tail replay). Adopted shards join the Group's
// snapshot loop, final checkpoint and shutdown, but stay outside the
// swap/shadow set: a mirror's journal is replayed against the model lineage
// it was written under, and custody is temporary (the shard dies with the
// process; a rejoining peer re-ingests from its own journal). The Group knows
// a dead peer by name only; membership stays in the cluster layer.

// AdoptedStatus is one takeover's row in the /statusz cluster block.
type AdoptedStatus struct {
	Peer   string `json:"peer"`
	Shards int    `json:"shards"`
	// Recovered is the number of outputs re-derived from the shipped
	// journals during adoption.
	Recovered int `json:"recovered"`
	// Lines counts lines submitted to the adopted shards since the
	// takeover (the replayed journal is not included) — together with the
	// boot shards' line counters it lets an operator account for every
	// line the cluster accepted.
	Lines int64 `json:"lines"`
}

// Claim reserves a dead peer's takeover before the slow work starts. It
// reports false when the peer was claimed before (a peer is adopted at most
// once per process lifetime; a later rejoin re-homes its keys back) or
// ingest has finished.
func (g *Group) Claim(peer string) bool {
	g.adoptMu.Lock()
	defer g.adoptMu.Unlock()
	if _, done := g.adopted[peer]; done || g.finished {
		return false
	}
	g.adopted[peer] = nil // claimed; nil until Adopt lands
	return true
}

// Adopt recovers a claimed peer's shards, given in the peer's own index
// order: each one's fan-out starts and its mirror data dir is opened
// (snapshot restore, then journal replay — recovered outputs land in the
// shard's Recovered buffer). Adopted then resolves the peer's keys to them.
// A shard that fails to open is logged and left out; lines placed on it drop
// as misrouted.
func (g *Group) Adopt(peer string, shards []*shard.Local) {
	for i, sh := range shards {
		sh.Start()
		if err := sh.Open(g.reg); err != nil {
			g.cfg.Logf("serve: takeover %s shard %d: %v", peer, i, err)
			retire(sh)
			shards[i] = nil
			continue
		}
		g.cfg.Logf("serve: adopted %s shard %d (%d recovered outputs)", peer, i, len(sh.Recovered()))
	}
	g.adoptMu.Lock()
	finished := g.finished
	if !finished {
		g.adopted[peer] = shards
		close(g.adoptedCh) // wake forwarded-lane waiters
		g.adoptedCh = make(chan struct{})
	}
	g.adoptMu.Unlock()
	if finished {
		// Ingest finished while the shards opened: no line will reach them
		// and the final checkpoint has run, so nothing else will close them.
		for _, sh := range shards {
			if sh != nil {
				retire(sh)
			}
		}
	}
}

// retire closes a started shard that takes no part in ingest: its manager
// closes first, which ends the fan-out Close waits for.
func retire(sh *shard.Local) {
	sh.FinishIngest(true)
	sh.Close() // the shard logs its own close error
}

// Adopted resolves (home peer, shard index) to an adopted shard (nil when
// there is none). A forwarded line may race the takeover: Adopted then waits
// up to wait for the peer's adoption to land.
func (g *Group) Adopted(peer string, idx int, wait time.Duration) *shard.Local {
	deadline := time.Now().Add(wait)
	for {
		g.adoptMu.Lock()
		shards := g.adopted[peer]
		ch := g.adoptedCh
		g.adoptMu.Unlock()
		if shards != nil {
			if idx < len(shards) {
				return shards[idx]
			}
			return nil
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		select {
		case <-ch:
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// adoptedPeers returns the adopted peers in name order with their opened
// shards in index order; a claim still in flight is left out.
func (g *Group) adoptedPeers() (peers []string, shards [][]*shard.Local) {
	g.adoptMu.Lock()
	defer g.adoptMu.Unlock()
	for peer, list := range g.adopted {
		if list != nil {
			peers = append(peers, peer)
		}
	}
	sort.Strings(peers)
	for _, peer := range peers {
		var open []*shard.Local
		for _, sh := range g.adopted[peer] {
			if sh != nil {
				open = append(open, sh)
			}
		}
		shards = append(shards, open)
	}
	return peers, shards
}

// AdoptedStatus assembles one row per adopted peer, in name order.
func (g *Group) AdoptedStatus() []AdoptedStatus {
	peers, shards := g.adoptedPeers()
	var rows []AdoptedStatus
	for i, peer := range peers {
		row := AdoptedStatus{Peer: peer, Shards: len(shards[i])}
		for _, sh := range shards[i] {
			row.Recovered += len(sh.Recovered())
			row.Lines += sh.Stats().Lines
		}
		rows = append(rows, row)
	}
	return rows
}
