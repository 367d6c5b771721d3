package serve

import (
	"sort"
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/recycle"
)

// Sharding must be invisible to prediction consumers: routing lines to N
// local shards by node hash yields exactly the outputs a single-shard server
// produces — the same multiset overall, and the same sequence per node (one
// node always lands on one shard, which preserves its line order through the
// shard's fanout). Cross-node interleaving is unconstrained; the arbiter's
// per-shard chain ledgers legitimately diverge from the fused single-shard
// view, so predictions are the equivalence surface, not arbiter state.

// shardRun is the prediction-visible outcome of one server run.
type shardRun struct {
	keys    []string            // sorted multiset of output keys
	perNode map[string][]string // output keys in arrival order, per node
}

// runSharded boots an in-memory server with the given shard
// count, streams lines through the ingest pipeline (over the TCP line
// listener, torn at seeded random write boundaries, when tcpSeed is non-zero),
// and captures every published output.
func runSharded(t *testing.T, d *loggen.Dialect, lines []string, shards int, tcpSeed int64) shardRun {
	t.Helper()
	mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr := "off"
	if tcpSeed != 0 {
		tcpAddr = "127.0.0.1:0"
	}
	s := New(mgr, Config{
		TCPAddr: tcpAddr, HTTPAddr: "off",
		Shards: shards,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	sub := s.Subscribe(1 << 17)
	if tcpSeed != 0 {
		feedTCP(t, s, lines, tcpSeed)
	} else {
		if !s.pipe.BeginProduce() {
			t.Fatal("server draining before any ingest")
		}
		for _, line := range lines {
			s.pipe.Ingest(line)
		}
		s.pipe.EndProduce()
	}
	shutdownServer(t, s)

	run := shardRun{perNode: map[string][]string{}}
	for out := range sub.Out() {
		k := outKey(out)
		if k == "" {
			continue
		}
		run.keys = append(run.keys, k)
		run.perNode[outNode(out)] = append(run.perNode[outNode(out)], k)
	}
	sort.Strings(run.keys)
	return run
}

// TestShardedPredictionEquivalence: for four dialect families, a -shards 4
// server reproduces the -shards 1 prediction stream exactly (multiset of
// outputs, order per node).
func TestShardedPredictionEquivalence(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	// Four dialect families that pass the vet admission gate (every boot
	// model is vetted; BG/P's inventory deliberately carries shadowed
	// templates, so it cannot be admitted).
	dialects := []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectCassandra, loggen.DialectHadoop,
	}
	for di, d := range dialects {
		d := d
		seed := int64(97 + di)
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			log, err := loggen.Generate(loggen.Config{
				Dialect: d, Seed: seed, Duration: 45 * time.Minute,
				// Enough nodes that the ring spreads them across all four
				// shards with overwhelming probability.
				Nodes: 12, Failures: 3, BenignPerMinute: 2, AnomalyRate: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			lines := log.Lines()

			ref := runSharded(t, d, lines, 1, 0)
			if len(ref.keys) == 0 {
				t.Fatal("single-shard reference produced no outputs; the comparison would be vacuous")
			}
			for _, c := range []struct {
				label   string
				tcpSeed int64
			}{
				{"sharded run", 0},
				{"sharded run fed over TCP", seed},
			} {
				got := runSharded(t, d, lines, 4, c.tcpSeed)

				if len(got.keys) != len(ref.keys) {
					t.Fatalf("%s: %d outputs, want %d", c.label, len(got.keys), len(ref.keys))
				}
				for i := range ref.keys {
					if got.keys[i] != ref.keys[i] {
						t.Fatalf("%s: output multiset diverges at %d: %q vs %q", c.label, i, got.keys[i], ref.keys[i])
					}
				}
				for node, seq := range ref.perNode {
					gs := got.perNode[node]
					if len(gs) != len(seq) {
						t.Fatalf("%s: node %s emitted %d outputs, want %d", c.label, node, len(gs), len(seq))
					}
					for i := range seq {
						if gs[i] != seq[i] {
							t.Fatalf("%s: node %s output order diverges at %d: %q vs %q", c.label, node, i, gs[i], seq[i])
						}
					}
				}
			}
		})
	}
}
