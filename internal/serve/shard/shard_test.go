package shard

import (
	"testing"
	"time"

	"repro/internal/loggen"
)

// TestSubmitBatchAllocs: a steady-state SubmitBatch of 256 lines of a benign
// XC30 stream — WAL framing and group-append, parse, scatter, worker scan and
// parse — costs at most one allocation per batch, with the journal on and
// off, at one and two predictor workers. The measurement includes the worker
// goroutines; what they allocate is a runtime's scheduling noise, well under
// one object a batch.
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
			if allocs > 1 {
				t.Errorf("SubmitBatch: %.2f allocs per batch, want at most 1", allocs)
			}
		})
	}
}
