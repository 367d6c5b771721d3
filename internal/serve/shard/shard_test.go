package shard

import (
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/ring"
)

// TestSubmitBatchAllocs: a steady-state SubmitBatch of 256 lines — WAL
// framing and group-append, parse, copy-in, scatter, worker scan and parse —
// allocates nothing, with the journal on and off, at one and two predictor
// workers. The benign rows are an XC30 stream the scanner mostly discards;
// the chains rows are one where about half the lines are failure-chain
// phrases, so the parser drivers, not the scan, carry the batch. The
// measurement includes the worker goroutines: a batch shell the freelist has
// not seen yet reaches its working size in one or two allocations, which
// AllocsPerRun's per-run average rounds away.
func TestSubmitBatchAllocs(t *testing.T) {
	model := xc30Model(t)
	for _, st := range []struct {
		prefix string
		cfg    loggen.Config
		// minTokens is the share of lines that must scan to a chain phrase,
		// so the row measures what it names.
		minTokens float64
	}{
		{"", loggen.Config{Nodes: 16, BenignPerMinute: 3, AnomalyRate: 0.001}, 0},
		// No injected failures: a completed chain allocates its prediction,
		// which is output, not per-line cost.
		{"chains/", loggen.Config{Nodes: 64, BenignPerMinute: 0.5, AnomalyRate: 0.47}, 0.35},
	} {
		st.cfg.Dialect, st.cfg.Seed, st.cfg.Duration = loggen.DialectXC30, 3, 2*time.Hour
		lg, err := loggen.Generate(st.cfg)
		if err != nil {
			t.Fatal(err)
		}
		batch := lg.Lines()[:256]
		for _, c := range []struct {
			name    string
			wal     bool
			workers int
		}{{"mem/w1", false, 1}, {"mem/w2", false, 2}, {"wal/w1", true, 1}, {"wal/w2", true, 2}} {
			t.Run(st.prefix+c.name, func(t *testing.T) {
				dir := ""
				if c.wal {
					dir = t.TempDir()
				}
				l := newTestLocal(t, model, dir, c.workers, false)
				if err := l.Open(nil); err != nil {
					t.Fatal(err)
				}
				defer closeTestLocal(t, l)
				for i := 0; i < 64; i++ { // freelists, drivers and buffers reach their high-water marks
					l.SubmitBatch(batch)
				}
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
				if ms := l.Stats().Manager; float64(ms.Tokens) < st.minTokens*float64(ms.LinesScanned) {
					t.Fatalf("%d of %d lines scanned to a chain phrase, want at least %.0f%%", ms.Tokens, ms.LinesScanned, 100*st.minTokens)
				}
				allocs := testing.AllocsPerRun(200, func() { l.SubmitBatch(batch) })
				t.Logf("%.2f allocs per %d-line batch", allocs, len(batch))
				if allocs != 0 {
					t.Errorf("SubmitBatch: %.2f allocs per batch, want 0", allocs)
				}
			})
		}
	}
}

// TestRouterProcessBatchAllocs: over two shards the router collects each
// shard's lines as views of the batch in reused slices and submits both
// shares on the caller's goroutine, so a steady-state ProcessBatch of 256
// benign lines — routing and both shards' submits — allocates nothing.
func TestRouterProcessBatchAllocs(t *testing.T) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 3, Duration: 2 * time.Hour,
		Nodes: 16, BenignPerMinute: 3, AnomalyRate: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := lg.Lines()[:256]
	model := xc30Model(t)
	shards := []*Local{newTestLocal(t, model, "", 1, false), newTestLocal(t, model, "", 1, false)}
	for _, l := range shards {
		if err := l.Open(nil); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRouter(shards)
	defer func() {
		r.FinishIngest(true)
		for _, l := range shards {
			if err := l.Close(); err != nil {
				t.Error(err)
			}
		}
	}()
	for i := 0; i < 64; i++ { // scratch, buffers and drivers reach their high-water marks
		r.ProcessBatch(batch)
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() { r.ProcessBatch(batch) })
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, l := range shards {
		if l.Stats().Lines == 0 {
			t.Fatalf("shard %d got no lines: the batch did not exercise the split", i)
		}
	}
	t.Logf("%.2f allocs per %d-line batch", allocs, len(batch))
	if allocs != 0 {
		t.Errorf("Router.ProcessBatch over 2 shards: %.2f allocs per batch, want 0", allocs)
	}
}

// TestRouterPlacementMatchesPeerMap: the cluster places a line on its home
// peer's shard with ring.PeerMap.Lookup, and a peer's Router places it
// locally; the two must agree, or a dead peer's lines fed into its adopted
// shards land where its node's partial match does not live.
func TestRouterPlacementMatchesPeerMap(t *testing.T) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 3, Duration: 30 * time.Minute,
		Nodes: 64, BenignPerMinute: 3, AnomalyRate: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := lg.Lines()
	model := xc30Model(t)
	for _, n := range []int{1, 2, 4} {
		pm := ring.NewPeerMap(0, []ring.Peer{{Name: "p", Shards: n, Alive: true}})
		want := make([]int64, n)
		for _, line := range lines {
			want[pm.Lookup(RouteKey(line)).Shard]++
		}
		shards := make([]*Local, n)
		for i := range shards {
			shards[i] = newTestLocal(t, model, "", 1, false)
			if err := shards[i].Open(nil); err != nil {
				t.Fatal(err)
			}
		}
		r := NewRouter(shards)
		r.ProcessBatch(lines)
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
		r.FinishIngest(true)
		for i, l := range shards {
			if got := l.Stats().Lines; got != want[i] || got == 0 {
				t.Errorf("%d shards: shard %d got %d lines, PeerMap.Lookup places %d there", n, i, got, want[i])
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
