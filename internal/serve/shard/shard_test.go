package shard

import (
	"testing"
	"time"

	"repro/internal/loggen"
)

// TestSubmitBatchAllocs: a steady-state SubmitBatch of 256 lines of a benign
// XC30 stream — WAL framing and group-append, parse, copy-in, scatter, worker
// scan and parse — allocates nothing, with the journal on and off, at one and
// two predictor workers. The measurement includes the worker goroutines: a
// batch shell the freelist has not seen yet reaches its working size in one
// or two allocations, which AllocsPerRun's per-run average rounds away.
func TestSubmitBatchAllocs(t *testing.T) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 3, Duration: 2 * time.Hour,
		Nodes: 16, BenignPerMinute: 3, AnomalyRate: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := lg.Lines()[:256]
	model := xc30Model(t)
	for _, c := range []struct {
		name    string
		wal     bool
		workers int
	}{{"mem/w1", false, 1}, {"mem/w2", false, 2}, {"wal/w1", true, 1}, {"wal/w2", true, 2}} {
		t.Run(c.name, func(t *testing.T) {
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
			allocs := testing.AllocsPerRun(200, func() { l.SubmitBatch(batch) })
			t.Logf("%.2f allocs per %d-line batch", allocs, len(batch))
			if allocs != 0 {
				t.Errorf("SubmitBatch: %.2f allocs per batch, want 0", allocs)
			}
		})
	}
}

// TestRouterProcessBatchAllocs: over two shards the router copies each
// shard's lines into a recycled sub-batch for that shard's worker, so a
// steady-state ProcessBatch of 256 benign lines — routing, copy-in,
// hand-off and both shards' submits — allocates nothing.
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
	for i := 0; i < 64; i++ { // shells, buffers and drivers reach their high-water marks
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
