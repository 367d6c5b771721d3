package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/serve/lifecycle"
)

// TestStatuszGolden pins the /statusz wire format: a fully-populated Status
// value (multi-shard shape — per-shard rows carry the WAL and arbiter detail,
// the top-level blocks are nil) is encoded exactly the way the handler does
// and compared byte-for-byte against the checked-in golden file. Run with
// UPDATE_GOLDEN=1 to rewrite the golden after a deliberate format change —
// any other diff here is an accidental break of a scrape-stable endpoint.
func TestStatuszGolden(t *testing.T) {
	st := Status{
		UptimeSeconds:   12.5,
		Draining:        false,
		Overflow:        "block",
		LinesAccepted:   1000,
		LinesDropped:    3,
		ParseErrors:     2,
		OpenConns:       1,
		TotalConns:      7,
		QueueDepth:      4,
		QueueCapacity:   4096,
		Subscribers:     2,
		SubscriberDrops: 1,
		Manager: predictor.Stats{
			LinesScanned: 995,
			Tokens:       240,
			Discarded:    755,
			Nodes:        6,
		},
		Shards: []ShardStatus{
			{
				Index:       0,
				Lines:       512,
				ParseErrors: 1,
				Nodes:       3,
				WALOffset:   512,
				Snapshots:   2,
				Arbiter: &ArbiterSummary{
					Nodes:       3,
					Down:        1,
					Heartbeats:  120,
					Predictions: 9,
					Failures:    1,
					Alerts:      2,
				},
			},
			{
				Index:       1,
				Lines:       483,
				ParseErrors: 1,
				Nodes:       3,
				WALOffset:   483,
				Snapshots:   2,
				Arbiter: &ArbiterSummary{
					Nodes:       3,
					Down:        0,
					Heartbeats:  118,
					Predictions: 7,
					Failures:    0,
					Alerts:      1,
				},
			},
		},
		Model: &lifecycle.ModelStatus{
			Active:   "fp-aaaa",
			Base:     "fp-aaaa",
			Versions: 2,
			Swaps:    1,
		},
	}

	// Encode exactly as transport.WriteJSONBody does for the live handler.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "statusz.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("statusz encoding drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestStatuszPerShard drives the real endpoint: a 4-shard server must report
// one row per shard with the accepted lines accounted for across them, and
// must omit the single-shard top-level WAL/arbiter blocks.
func TestStatuszPerShard(t *testing.T) {
	s := newTestServer(t, Config{
		TCPAddr: "off",
		Shards:  4,
		Model: &registry.Model{
			Chains:    loggen.DialectXC30.Chains(),
			Templates: loggen.DialectXC30.Inventory(),
		},
		Arbiter: &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute},
	})

	lines := genTestLog(t, 7, 1).Lines()
	ingestAll(t, s, lines)
	if err := s.flushAll(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(s.httpBase() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(st.Shards))
	}
	var total int64
	for i, row := range st.Shards {
		if row.Index != i {
			t.Errorf("shard %d reports index %d", i, row.Index)
		}
		if row.Arbiter == nil {
			t.Errorf("shard %d missing arbiter summary", i)
		}
		total += row.Lines
	}
	if total != int64(len(lines)) {
		t.Errorf("per-shard lines sum to %d, want %d", total, len(lines))
	}
	if st.WAL != nil || st.Recovery != nil || st.Arbiter != nil {
		t.Errorf("multi-shard status kept single-shard blocks: wal=%v recovery=%v arbiter=%v",
			st.WAL != nil, st.Recovery != nil, st.Arbiter != nil)
	}
	if st.Manager.LinesScanned == 0 {
		t.Error("summed manager stats empty")
	}
}
