package serve

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
	"repro/internal/gossip/ship"
	"repro/internal/ring"
	"repro/internal/serve/shard"
	"repro/internal/serve/transport"
)

// Cluster mode turns a set of aarohid daemons into one logical predictor:
// gossip membership (SWIM probes + phi-accrual death detection) builds a
// shared peer table, a consistent-hash PeerMap places every node ID on
// exactly one peer, mis-addressed lines make at most one forwarding hop over
// the peer's line listener, and each daemon continuously WAL-ships its
// shards to its ring successor so a confirmed death promotes the successor
// to owner with the dead peer's in-flight partial matches intact.

// StaticPeer is one fixed entry of a gossip-less peer table (tests and
// benchmarks): placement is computed over exactly these peers, verbatim — a
// daemon whose own name is absent owns nothing and forwards everything.
type StaticPeer struct {
	// Name is the peer's cluster-unique name.
	Name string
	// LineAddr is the peer's TCP line-protocol address (forward target).
	LineAddr string
	// Shards is the peer's local shard count (defaults to 1).
	Shards int
}

// ClusterConfig parameterizes cluster mode. Either GossipAddr (live
// membership) or Static (fixed table) selects it.
type ClusterConfig struct {
	// Name is this daemon's peer name (required; must be cluster-unique).
	Name string
	// GossipAddr is the UDP bind address for membership probes.
	GossipAddr string
	// Advertise is the gossip address peers should probe back (defaults to
	// the bound GossipAddr).
	Advertise string
	// AdvertiseLine is the line-protocol address peers forward lines and
	// ship WAL segments to (defaults to the bound TCP listener address —
	// override it when peers reach this daemon through a different address).
	AdvertiseLine string
	// Join lists seed peers' gossip addresses.
	Join []string
	// ProbeInterval is the gossip probe cadence (default 250ms).
	ProbeInterval time.Duration
	// SuspectTimeout is how long a suspected peer may stay silent before it
	// is confirmed dead (default 8×ProbeInterval).
	SuspectTimeout time.Duration
	// PhiThreshold is the phi-accrual suspicion level (default 8).
	PhiThreshold float64
	// Static, when non-empty, replaces gossip with a fixed peer table: no
	// probes, no death detection, no shipping — placement and forwarding
	// only. Mutually exclusive with GossipAddr.
	Static []StaticPeer
}

// ClusterStatus is the /statusz cluster block (also served at /peers).
type ClusterStatus struct {
	Self  string          `json:"self"`
	Peers []gossip.Member `json:"peers"`
	// ForwardedIn counts lines that arrived over peer-forwarded connections;
	// ForwardedOut counts lines sent to peers; ForwardErrors counts batches
	// that could not be delivered (dropped — a forwarded line never hops
	// twice, so there is no local fallback that would fork peer state).
	ForwardedIn   int64 `json:"forwarded_in"`
	ForwardedOut  int64 `json:"forwarded_out"`
	ForwardErrors int64 `json:"forward_errors"`
	// Misrouted counts lines dropped because their owner was neither this
	// daemon nor reachable (stale placement during membership churn).
	Misrouted int64 `json:"misrouted"`
	// ShipTarget is the ring successor currently receiving this daemon's
	// journals; Ship is per-shard shipping progress (acked == last means the
	// heir could take over with zero loss right now).
	ShipTarget string          `json:"ship_target,omitempty"`
	Ship       []ship.ShardLag `json:"ship,omitempty"`
	// Adopted lists dead peers whose shards this daemon has taken over.
	Adopted []AdoptedStatus `json:"adopted,omitempty"`
}

// clusterView is the immutable placement the hot path reads: the PeerMap
// plus each peer's forwarding address. Rebuilt wholesale on every membership
// change and swapped in atomically.
type clusterView struct {
	pm        *ring.PeerMap
	lineAddrs map[string]string
}

// cluster wires gossip, placement, forwarding and takeover into the Server.
// The shards it adopts belong to the Server's lifecycle Group.
type cluster struct {
	s   *Server
	cfg ClusterConfig

	g       *gossip.Gossip // nil in static mode
	fwd     *transport.Forwarder
	recv    *ship.Receiver // nil without DataDir
	shipper *ship.Shipper  // nil without DataDir or in static mode

	view atomic.Pointer[clusterView]

	forwardedOut atomic.Int64
	forwardErrs  atomic.Int64
	misrouted    atomic.Int64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	return c
}

// newCluster builds the parts of the cluster plane that connections on the
// line listener reach — the forwarder, and with a data dir in gossip mode the
// ship receiver and shipper — so they exist before the listener accepts its
// first connection (hijack reads recv on the connection's goroutine). The
// caller closes the cluster if Start fails after this.
func newCluster(s *Server, cfg ClusterConfig) *cluster {
	c := &cluster{s: s, cfg: cfg.withDefaults()}
	c.fwd = transport.NewForwarder(transport.Config{MaxLineLen: s.cfg.MaxLineLen, Logf: s.cfg.Logf}, c.cfg.Name)
	if len(c.cfg.Static) == 0 && s.cfg.DataDir != "" {
		c.recv = ship.NewReceiver(ship.ReceiverConfig{
			Dir:  s.cfg.DataDir + "/ship",
			Logf: s.cfg.Logf,
		})
		c.shipper = ship.NewShipper(ship.ShipperConfig{
			Self:   c.cfg.Name,
			Source: shardSource{shards: s.shards},
			Logf:   s.cfg.Logf,
		})
	}
	return c
}

// start spins up placement and membership. The TCP listener must already be
// bound (its address is advertised); the pipeline must not be started yet.
func (c *cluster) start() error {
	s := c.s
	if len(c.cfg.Static) > 0 {
		peers := make([]ring.Peer, 0, len(c.cfg.Static))
		addrs := make(map[string]string, len(c.cfg.Static))
		for _, p := range c.cfg.Static {
			peers = append(peers, ring.Peer{Name: p.Name, Shards: p.Shards, Alive: true})
			addrs[p.Name] = p.LineAddr
		}
		c.view.Store(&clusterView{pm: ring.NewPeerMap(0, peers), lineAddrs: addrs})
		return nil
	}

	tr, err := gossip.ListenUDP(c.cfg.GossipAddr)
	if err != nil {
		return err
	}
	g, err := gossip.New(gossip.Config{
		Name:           c.cfg.Name,
		LineAddr:       c.lineAddr(),
		Shards:         s.cfg.Shards,
		Transport:      tr,
		Advertise:      c.cfg.Advertise,
		Seeds:          c.cfg.Join,
		ProbeInterval:  c.cfg.ProbeInterval,
		SuspectTimeout: c.cfg.SuspectTimeout,
		PhiThreshold:   c.cfg.PhiThreshold,
		Logf:           s.cfg.Logf,
		OnChange:       c.onChange,
	})
	if err != nil {
		tr.Close()
		return err
	}
	c.g = g
	c.rebuildView() // self-only view until gossip converges
	g.Start()
	return nil
}

// GossipAddr reports the bound gossip UDP address ("" outside gossip mode) —
// what other daemons pass to -join.
func (s *Server) GossipAddr() string {
	if s.cluster == nil || s.cluster.g == nil {
		return ""
	}
	return s.cluster.g.Self().Addr
}

// lineAddr is the line-protocol address advertised to peers.
func (c *cluster) lineAddr() string {
	if c.cfg.AdvertiseLine != "" {
		return c.cfg.AdvertiseLine
	}
	if a := c.s.TCPAddr(); a != nil {
		return a.String()
	}
	return ""
}

// leave broadcasts a graceful departure (shutdown step 1: peers stop
// forwarding here before the queue closes).
func (c *cluster) leave() {
	if c.g != nil {
		c.g.Leave()
	}
}

// close tears the cluster plane down. Called after the pump has exited (the
// forwarder has no callers left).
func (c *cluster) close() {
	if c.shipper != nil {
		c.shipper.Close()
	}
	if c.g != nil {
		c.g.Close()
	}
	if c.fwd != nil {
		c.fwd.Close()
	}
	if c.recv != nil {
		c.recv.Close()
	}
}

// onChange runs on the gossip notify goroutine after every membership
// change: rebuild the placement view, retarget the shipper at the current
// ring successor, drop forwarder connections to dead peers, and take over
// shards whose dead owner resolves to this daemon.
func (c *cluster) onChange() {
	members := c.rebuildView()
	view := c.view.Load()

	if c.shipper != nil {
		succ := view.pm.Successor(c.cfg.Name)
		c.shipper.SetTarget(view.lineAddrs[succ]) // "" when alone
	}

	for _, m := range members {
		if m.Name == c.cfg.Name {
			continue
		}
		switch m.State {
		case gossip.StateDead, gossip.StateLeft:
			c.fwd.Drop(m.LineAddr)
			if m.State == gossip.StateDead && c.recv != nil &&
				view.pm.Successor(m.Name) == c.cfg.Name {
				c.takeover(m)
			}
		}
	}
}

// rebuildView recomputes the placement view from the current membership and
// swaps it in. Returns the membership snapshot it was built from.
func (c *cluster) rebuildView() []gossip.Member {
	members := c.g.Members()
	peers := make([]ring.Peer, 0, len(members))
	addrs := make(map[string]string, len(members))
	for _, m := range members {
		peers = append(peers, ring.Peer{Name: m.Name, Shards: m.Shards, Alive: m.State == gossip.StateAlive})
		addrs[m.Name] = m.LineAddr
	}
	c.view.Store(&clusterView{pm: ring.NewPeerMap(0, peers), lineAddrs: addrs})
	return members
}

// takeover adopts one confirmed-dead peer's shards from the shipped mirror
// into the Group, at most once per peer (the Group's claim).
func (c *cluster) takeover(m gossip.Member) {
	s := c.s
	if !s.group.Claim(m.Name) {
		return
	}
	// No new ship sessions for the peer; its mirror journals close so the
	// adopting shards can open them exclusively.
	c.recv.Release(m.Name)

	workers := s.shards[0].Manager().Workers()
	shards := make([]*shard.Local, max(m.Shards, 1))
	for i := range shards {
		cfg := s.shardConfig(i)
		cfg.Dir = c.recv.Dir(m.Name, i)
		shards[i] = shard.New(s.bootModel.NewManager(workers), cfg)
	}
	s.group.Adopt(m.Name, shards)
}

// status assembles the /statusz cluster block.
func (c *cluster) status() *ClusterStatus {
	st := &ClusterStatus{
		Self:          c.cfg.Name,
		ForwardedIn:   c.s.pipe.Forwarded(),
		ForwardedOut:  c.forwardedOut.Load(),
		ForwardErrors: c.forwardErrs.Load(),
		Misrouted:     c.misrouted.Load(),
	}
	if c.g != nil {
		st.Peers = c.g.Members()
	} else if view := c.view.Load(); view != nil {
		for _, p := range view.pm.Peers() {
			st.Peers = append(st.Peers, gossip.Member{
				Name: p.Name, LineAddr: view.lineAddrs[p.Name], Shards: p.Shards,
				State: gossip.StateAlive, Incarnation: 1,
			})
		}
	}
	if c.shipper != nil {
		st.Ship = c.shipper.Lag()
		if target := c.shipper.Target(); target != "" {
			st.ShipTarget = target
		}
	}
	st.Adopted = c.s.group.AdoptedStatus()
	return st
}

// hijack multiplexes peer protocols off the line listener's first line.
func (c *cluster) hijack(first string) transport.HijackHandler {
	if strings.HasPrefix(first, transport.ForwardPreamble) {
		return c.handleForwardConn
	}
	if peer, shardIdx, ok := ship.ParseHandshake(first); ok {
		if c.recv == nil {
			return func(conn net.Conn, _ *bufio.Reader) { conn.Close() }
		}
		return func(conn net.Conn, rd *bufio.Reader) {
			c.recv.HandleConn(conn, rd, peer, shardIdx)
		}
	}
	return nil
}

// handleForwardConn drains a peer-forwarded line stream into the forwarded
// ingest lane. Producer registration is already held by the accept loop.
func (c *cluster) handleForwardConn(conn net.Conn, rd *bufio.Reader) {
	s := c.s
	err := s.tcp.ReadLines(conn, rd, func(lines []string) { s.pipe.IngestForwardedBatch(lines) })
	if err != nil && !s.pipe.Draining() {
		s.cfg.Logf("serve: forwarded stream %s: %v", conn.RemoteAddr(), err)
	}
}

// shardSource adapts the daemon's boot shards into the ship Source.
type shardSource struct{ shards []*shard.Local }

func (ss shardSource) Shards() int                 { return len(ss.shards) }
func (ss shardSource) FirstIndex(shard int) uint64 { return ss.shards[shard].WALFirstIndex() }
func (ss shardSource) LastIndex(shard int) uint64  { return ss.shards[shard].WALLastIndex() }
func (ss shardSource) Replay(shard int, from uint64, fn func(uint64, []byte) error) error {
	return ss.shards[shard].WALReplay(from, fn)
}
func (ss shardSource) Snapshot(shard int) (uint64, []byte, bool, error) {
	return ss.shards[shard].LatestSnapshot()
}

// clusterSink is the pipeline's primary sink in cluster mode: it places
// every line on its owning peer — local lines reach the Router (or an
// adopted shard), remote lines make their one forwarding hop. Runs only on
// the pump goroutine; the per-destination slices are reused across batches.
type clusterSink struct {
	c *cluster
	// fromForward marks the forwarded-ingest lane: placement is identical
	// but a line never hops twice — an owner that is not this daemon means
	// the sender's view was stale, and the line waits for the in-flight
	// takeover or drops.
	fromForward bool

	own     []string
	remote  map[string][]string       // owner name → lines
	adopted map[*shard.Local][]string // adopted shard → lines
}

func newClusterSink(c *cluster, fromForward bool) *clusterSink {
	return &clusterSink{
		c:           c,
		fromForward: fromForward,
		remote:      make(map[string][]string),
		adopted:     make(map[*shard.Local][]string),
	}
}

//aarohi:hotpath
func (k *clusterSink) ProcessBatch(batch []string) {
	c := k.c
	view := c.view.Load()
	self := c.cfg.Name

	k.own = k.own[:0]
	for owner := range k.remote {
		k.remote[owner] = k.remote[owner][:0]
	}
	for sh := range k.adopted {
		k.adopted[sh] = k.adopted[sh][:0]
	}

	for _, line := range batch {
		pl := view.pm.Lookup(shard.RouteKey(line))
		switch {
		case pl.Owner == self:
			if pl.Home == self {
				k.own = append(k.own, line)
				break
			}
			// A dead peer's key homed here: the adopted shard index comes
			// from the dead peer's own shard layout. Forwarded lines may
			// race the takeover — give it a moment to finish.
			wait := time.Duration(0)
			if k.fromForward {
				wait = 5 * time.Second
			}
			if sh := c.s.group.Adopted(pl.Home, pl.Shard, wait); sh != nil {
				k.adopted[sh] = append(k.adopted[sh], line)
			} else {
				c.misrouted.Add(1)
			}
		case k.fromForward, pl.Owner == "":
			// Already hopped once, or nobody owns the ring: drop rather
			// than fork peer state.
			c.misrouted.Add(1)
		default:
			k.remote[pl.Owner] = append(k.remote[pl.Owner], line)
		}
	}

	if len(k.own) > 0 {
		c.s.router.ProcessBatch(k.own)
	}
	for sh, lines := range k.adopted {
		if len(lines) > 0 {
			sh.SubmitBatch(lines)
		}
	}
	for owner, lines := range k.remote {
		if len(lines) == 0 {
			continue
		}
		addr := view.lineAddrs[owner]
		if addr == "" {
			c.forwardErrs.Add(1)
			continue
		}
		if err := c.fwd.Forward(addr, lines); err != nil {
			c.forwardErrs.Add(1)
			//aarohi:allow hotpath delivery-failure path: a dead peer's batch is already lost, the boxed log arguments cost nothing that matters
			c.s.cfg.Logf("serve: forwarding %d lines to %s (%s): %v", len(lines), owner, addr, err)
			continue
		}
		c.forwardedOut.Add(int64(len(lines)))
	}
}
