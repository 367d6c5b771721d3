package serve

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/gossip"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/ring"
	"repro/internal/serve/shard"
)

// In-process cluster tests: several Servers wired into one cluster inside a
// single test binary. The process-level counterpart (real aarohid binaries,
// real SIGKILL) lives in scripts/e2e_cluster.sh; these tests cover the same
// equivalence surface where a debugger can reach it.

// newClusterServer boots one cluster member over the XC30 dialect, the
// model runSharded uses, so prediction equivalence against a plain
// single-daemon run is exact.
func newClusterServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	d := loggen.DialectXC30
	mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "off"
	}
	if cfg.Logf == nil {
		name := "single"
		if cfg.Cluster != nil {
			name = cfg.Cluster.Name
		}
		cfg.Logf = func(format string, args ...any) {
			t.Logf("["+name+"] "+format, args...)
		}
	}
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// killCluster emulates SIGKILL for the cluster plane: gossip stops answering
// probes, the line listener dies mid-connection, and nothing is flushed or
// announced. The process-local remains (pump, journals) are reaped by the
// test cleanup's graceful Shutdown, which the peers never observe.
func killCluster(s *Server) {
	s.cluster.g.Close()
	s.tcp.StopAccepting()
	s.tcp.ForceClose()
	if s.cluster.shipper != nil {
		s.cluster.shipper.Close()
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// shardLines sums the lines processed by a server's boot shards.
func shardLines(s *Server) int64 {
	var n int64
	for _, row := range s.Status().Shards {
		n += row.Lines
	}
	return n
}

// adoptedLines sums the lines processed by a server's adopted shards.
func adoptedLines(s *Server) int64 {
	var n int64
	for _, sh := range s.group.Shards()[len(s.shards):] {
		n += sh.Stats().Lines
	}
	return n
}

// collectKeys drains a closed subscription into sorted output keys.
func collectKeys(sub *Subscription) []string {
	var keys []string
	for out := range sub.Out() {
		if k := outKey(out); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

func sortedEqual(t *testing.T, got, want []string, what string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at %d: %q vs %q", what, i, got[i], want[i])
		}
	}
}

// TestClusterStaticForwarding: two daemons under a fixed peer table, every
// line ingested at one of them. Forwarding must deliver each line to its
// owning peer exactly once, and the union of the two prediction streams must
// equal a single-daemon run over the same lines.
func TestClusterStaticForwarding(t *testing.T) {
	d := loggen.DialectXC30
	log, err := loggen.Generate(loggen.Config{
		Dialect: d, Seed: 41, Duration: 45 * time.Minute,
		Nodes: 12, Failures: 3, BenignPerMinute: 2, AnomalyRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := log.Lines()
	ref := runSharded(t, d, lines, 1, 0)
	if len(ref.keys) == 0 {
		t.Fatal("single-daemon reference produced no outputs; the comparison would be vacuous")
	}

	// B first (its bound address goes into A's table). Peer tables agree on
	// names and shard counts — the placement inputs — while only A needs B's
	// real address: every line enters through A, so B never forwards.
	b := newClusterServer(t, Config{TCPAddr: "127.0.0.1:0", Cluster: &ClusterConfig{
		Name:   "b",
		Static: []StaticPeer{{Name: "a", Shards: 1}, {Name: "b", Shards: 1}},
	}})
	a := newClusterServer(t, Config{TCPAddr: "127.0.0.1:0", Cluster: &ClusterConfig{
		Name: "a",
		Static: []StaticPeer{
			{Name: "a", Shards: 1},
			{Name: "b", LineAddr: b.TCPAddr().String(), Shards: 1},
		},
	}})
	subA := a.Subscribe(1 << 17)
	subB := b.Subscribe(1 << 17)

	streamLines(t, a, lines)
	waitFor(t, 15*time.Second, "both peers to process every line", func() bool {
		return shardLines(a)+shardLines(b) == int64(len(lines))
	})

	stA, stB := a.Status().Cluster, b.Status().Cluster
	if stA.ForwardedOut == 0 {
		t.Error("a forwarded no lines; placement should split 12 nodes across 2 peers")
	}
	if stB.ForwardedIn != stA.ForwardedOut {
		t.Errorf("b received %d forwarded lines, a sent %d", stB.ForwardedIn, stA.ForwardedOut)
	}
	if stA.ForwardedOut+shardLines(a) != int64(len(lines)) {
		t.Errorf("a: forwarded(%d) + local(%d) != sent(%d)", stA.ForwardedOut, shardLines(a), len(lines))
	}
	if stA.Misrouted != 0 || stB.Misrouted != 0 {
		t.Errorf("misrouted lines: a=%d b=%d, want 0", stA.Misrouted, stB.Misrouted)
	}

	shutdownServer(t, a)
	shutdownServer(t, b)
	merged := append(collectKeys(subA), collectKeys(subB)...)
	sortedEqual(t, merged, ref.keys, "two-peer union vs single daemon")
}

// TestClusterGossipTakeover is the in-process kill-one test: three daemons
// form a cluster over gossip, one is killed abruptly mid-stream, the
// phi-accrual detector confirms it dead, its ring successor adopts its shards
// from the shipped WAL mirror, and the stream continues. The union of the
// survivors' live outputs and the adopted shards' replay-recovered outputs
// must equal an uninterrupted single-daemon run.
func TestClusterGossipTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second gossip convergence")
	}
	d := loggen.DialectXC30
	log, err := loggen.Generate(loggen.Config{
		Dialect: d, Seed: 43, Duration: 45 * time.Minute,
		Nodes: 12, Failures: 3, BenignPerMinute: 2, AnomalyRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := log.Lines()
	ref := runSharded(t, d, lines, 1, 0)
	if len(ref.keys) == 0 {
		t.Fatal("single-daemon reference produced no outputs")
	}
	phase1, phase2 := lines[:len(lines)*3/5], lines[len(lines)*3/5:]

	// Fast probe cadence so death confirmation lands in about a second.
	gcfg := func(name string, join ...string) *ClusterConfig {
		return &ClusterConfig{
			Name:          name,
			GossipAddr:    "127.0.0.1:0",
			Join:          join,
			ProbeInterval: 50 * time.Millisecond,
		}
	}
	// SnapshotInterval stays 0 and the victim never shuts down gracefully, so
	// its mirror is journal-only: adoption replays the victim's whole stream
	// and the recovered buffer holds every output the victim ever fired.
	mk := func(cfg *ClusterConfig, shards int) *Server {
		return newClusterServer(t, Config{
			TCPAddr: "127.0.0.1:0",
			DataDir: t.TempDir(),
			Shards:  shards,
			Cluster: cfg,
		})
	}
	a := mk(gcfg("a"), 1)
	seed := a.cluster.g.Self().Addr
	b := mk(gcfg("b", seed), 2) // the victim: two shards, both must be adopted
	c := mk(gcfg("c", seed), 1)
	servers := map[string]*Server{"a": a, "b": b, "c": c}

	allAlive := func(s *Server) bool {
		n := 0
		for _, m := range s.cluster.g.Members() {
			if m.State == gossip.StateAlive {
				n++
			}
		}
		return n == 3
	}
	waitFor(t, 10*time.Second, "membership convergence", func() bool {
		return allAlive(a) && allAlive(b) && allAlive(c)
	})

	subA := a.Subscribe(1 << 17)
	subC := c.Subscribe(1 << 17)

	// Phase 1: everything enters through a; placement fans it out.
	streamLines(t, a, phase1)
	waitFor(t, 20*time.Second, "phase-1 lines to be processed", func() bool {
		return shardLines(a)+shardLines(b)+shardLines(c) == int64(len(phase1))
	})

	// Quiesce the victim's shipping so its heir can take over with zero loss
	// (the e2e's "ship caught up" barrier, read from the same Lag surface
	// /statusz serves).
	waitFor(t, 20*time.Second, "victim WAL shipping to catch up", func() bool {
		var shipped uint64
		for _, l := range b.cluster.shipper.Lag() {
			if l.Acked != l.Last {
				return false
			}
			shipped += l.Acked
		}
		return shipped > 0
	})

	heirName := a.cluster.view.Load().pm.Successor("b")
	heir, ok := servers[heirName]
	if !ok || heirName == "b" {
		t.Fatalf("successor of b resolved to %q", heirName)
	}
	t.Logf("killing b; heir is %s", heirName)
	killCluster(b)

	waitFor(t, 20*time.Second, "heir to adopt both shards", func() bool {
		for _, ad := range heir.Status().Cluster.Adopted {
			if ad.Peer == "b" && ad.Shards == 2 {
				return true
			}
		}
		return false
	})
	recovered := heir.Recovered()
	if len(recovered) == 0 {
		t.Error("adoption replayed the victim's journal but recovered no outputs")
	}

	// Phase 2: the stream keeps flowing into a; the dead peer's node IDs now
	// resolve to the heir's adopted shards.
	adoptedB := []*shard.Local{heir.group.Adopted("b", 0, 0), heir.group.Adopted("b", 1, 0)}
	if adoptedB[0] == nil || adoptedB[1] == nil {
		t.Fatalf("heir holds %v of b's shards, want both", adoptedB)
	}
	before := []int64{adoptedB[0].Stats().Lines, adoptedB[1].Stats().Lines}
	base := shardLines(a) + shardLines(c) + adoptedLines(heir)
	streamLines(t, a, phase2)
	waitFor(t, 20*time.Second, "phase-2 lines to be processed", func() bool {
		return shardLines(a)+shardLines(c)+adoptedLines(heir) == base+int64(len(phase2))
	})
	// Each of b's node IDs must reach the adopted shard b's own two-shard
	// router placed it on, where its partial match lives.
	bRouter := ring.New(0, shard.MemberName(0), shard.MemberName(1))
	pm := a.cluster.view.Load().pm
	want := make([]int64, 2)
	for _, line := range phase2 {
		if key := shard.RouteKey(line); pm.Lookup(key).Home == "b" {
			want[bRouter.LookupIndex(key)]++
		}
	}
	if want[1] == 0 {
		t.Fatal("no phase-2 line of b's places on its shard 1: the per-shard check is vacuous")
	}
	for i, sh := range adoptedB {
		if got := sh.Stats().Lines - before[i]; got != want[i] {
			t.Errorf("adopted shard %d of b got %d phase-2 lines, b's router places %d there", i, got, want[i])
		}
	}
	for name, s := range servers {
		if name == "b" {
			continue
		}
		if mis := s.Status().Cluster.Misrouted; mis != 0 {
			t.Errorf("%s dropped %d misrouted lines", name, mis)
		}
	}

	shutdownServer(t, a)
	shutdownServer(t, c)
	merged := append(collectKeys(subA), collectKeys(subC)...)
	for _, out := range recovered {
		if k := outKey(out); k != "" {
			merged = append(merged, k)
		}
	}
	sortedEqual(t, merged, ref.keys, "survivor-merged union vs single daemon")

	if status := heir.Status().Cluster; len(status.Adopted) != 1 {
		t.Errorf("heir adopted %d peers, want 1: %+v", len(status.Adopted), status.Adopted)
	}
}
