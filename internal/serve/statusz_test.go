package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/predictor"
	"repro/internal/serve/lifecycle"
	"repro/internal/serve/shard"
)

// TestStatuszGolden pins the /statusz wire format: a fully-populated Status
// value (two shard rows, each with its own journal, recovery and arbiter
// blocks, and the top level folded from them) is encoded exactly the way the
// handler does and compared byte-for-byte against the checked-in golden file.
// Run with UPDATE_GOLDEN=1 to rewrite the golden after a deliberate format
// change — any other diff here is an accidental break of a scrape-stable
// endpoint.
func TestStatuszGolden(t *testing.T) {
	clock := time.Date(2015, 3, 14, 9, 26, 53, 0, time.UTC)
	rows := []shard.Stats{
		{
			Index:       0,
			Lines:       512,
			ParseErrors: 1,
			Manager:     predictor.Stats{LinesScanned: 511, Tokens: 130, Discarded: 381, Nodes: 3},
			WAL: &WALStatus{
				Enabled: true, Sync: "batch", FirstIndex: 257, LastIndex: 512,
				Segments: 1, SnapshotsWritten: 2, LastSnapshotIndex: 256,
			},
			Recovery: &RecoveryStatus{
				Performed: true, SnapshotIndex: 456, ReplayedRecords: 56,
				RecoveredOutputs: 1, DurationSeconds: 0.25, ReplayedMarks: 49,
			},
			Arbiter: &arbiter.Status{
				StreamClock: clock, Nodes: 3, Down: 1, Heartbeats: 120, Predictions: 9, Failures: 1,
				Chains: []arbiter.ChainStatus{{Chain: "fc_hw", TP: 1, FP: 0, LinkProb: 5.0 / 6}},
				Top:    []arbiter.NodeStatus{{Node: "c0-0c0s1n2", Phi: 2, Probability: 0.5, Score: 0.5, Samples: 40, LastSeen: clock}},
			},
		},
		{
			Index:       1,
			Lines:       483,
			ParseErrors: 1,
			Manager:     predictor.Stats{LinesScanned: 484, Tokens: 110, Discarded: 374, Nodes: 3},
			WAL: &WALStatus{
				Enabled: true, Sync: "batch", FirstIndex: 241, LastIndex: 483,
				Segments: 1, SnapshotsWritten: 2, LastSnapshotIndex: 240,
			},
			Recovery: &RecoveryStatus{
				Performed: true, SnapshotIndex: 432, ReplayedRecords: 51, DurationSeconds: 0.25, ReplayedMarks: 44,
			},
			Arbiter: &arbiter.Status{
				StreamClock: clock, Nodes: 3, Heartbeats: 118, Predictions: 7,
				Chains: []arbiter.ChainStatus{{Chain: "fc_hw", TP: 0, FP: 1, LinkProb: 4.0 / 6}},
			},
		},
	}
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
		Shards:          rows,
		Arbiter: &arbiter.Status{
			StreamClock: clock, Nodes: 6, Down: 1, Heartbeats: 238, Predictions: 16, Failures: 1,
			Chains: []arbiter.ChainStatus{{Chain: "fc_hw", TP: 1, FP: 1, LinkProb: 5.0 / 7}},
			Top:    rows[0].Arbiter.Top,
		},
		Model: &lifecycle.ModelStatus{
			Active:   "fp-aaaa",
			Base:     "fp-aaaa",
			Versions: 2,
			Swaps:    1,
		},
	}
	for _, row := range rows {
		st.Manager.Add(row.Manager)
		st.WAL = st.WAL.Add(row.WAL)
		st.Recovery = st.Recovery.Add(row.Recovery)
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

// getStatusz reads /statusz over HTTP, the way an operator does.
func getStatusz(t *testing.T, s *Server) Status {
	t.Helper()
	resp, err := http.Get(s.httpBase() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// foldRows folds /statusz shard rows into the daemon-wide blocks the way the
// top level is specified: manager, journal and recovery through their Add,
// the arbiter by hand — counters sum, the stream clock is the latest, chain
// ledgers merge by name with the link probability recomputed under the
// default 4/1 prior, and the top nodes merge by score, capped at 12.
func foldRows(rows []shard.Stats) Status {
	var f Status
	ledger := make(map[string]*arbiter.ChainStatus)
	for _, row := range rows {
		f.ParseErrors += row.ParseErrors
		f.Manager.Add(row.Manager)
		f.WAL = f.WAL.Add(row.WAL)
		f.Recovery = f.Recovery.Add(row.Recovery)
		a := row.Arbiter
		if a == nil {
			continue
		}
		if f.Arbiter == nil {
			f.Arbiter = &arbiter.Status{}
		}
		if a.StreamClock.After(f.Arbiter.StreamClock) {
			f.Arbiter.StreamClock = a.StreamClock
		}
		f.Arbiter.Nodes += a.Nodes
		f.Arbiter.Down += a.Down
		f.Arbiter.Heartbeats += a.Heartbeats
		f.Arbiter.Predictions += a.Predictions
		f.Arbiter.Failures += a.Failures
		f.Arbiter.DroppedNodes += a.DroppedNodes
		for _, c := range a.Chains {
			if ledger[c.Chain] == nil {
				ledger[c.Chain] = &arbiter.ChainStatus{Chain: c.Chain}
			}
			ledger[c.Chain].TP += c.TP
			ledger[c.Chain].FP += c.FP
		}
		f.Arbiter.Top = append(f.Arbiter.Top, a.Top...)
	}
	if f.Arbiter == nil {
		return f
	}
	for _, c := range ledger {
		c.LinkProb = (float64(c.TP) + 4) / (float64(c.TP+c.FP) + 4 + 1)
		f.Arbiter.Chains = append(f.Arbiter.Chains, *c)
	}
	sort.Slice(f.Arbiter.Chains, func(i, j int) bool { return f.Arbiter.Chains[i].Chain < f.Arbiter.Chains[j].Chain })
	top := f.Arbiter.Top
	sort.Slice(top, func(i, j int) bool {
		if top[i].Score != top[j].Score {
			return top[i].Score > top[j].Score
		}
		return top[i].Node < top[j].Node
	})
	f.Arbiter.Top = top[:min(len(top), 12)]
	return f
}

// sameBlocks fails unless got's daemon-wide manager, journal, recovery and
// arbiter blocks encode exactly as want's.
func sameBlocks(t *testing.T, got, want Status, what string) {
	t.Helper()
	blocks := func(st Status) string {
		b, err := json.Marshal([]any{st.ParseErrors, st.Manager, st.WAL, st.Recovery, st.Arbiter})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if g, w := blocks(got), blocks(want); g != w {
		t.Errorf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestStatuszPerShard drives the real endpoint: a 4-shard server restarted
// after a crash must report one row per shard with the accepted lines
// accounted for across them, and top-level blocks that are exactly the fold
// of the rows — so the restart's recovery block counts every journaled line.
func TestStatuszPerShard(t *testing.T) {
	cfg := Config{
		TCPAddr: "off",
		Shards:  4,
		DataDir: t.TempDir(),
		Arbiter: &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute},
	}
	lines := genTestLog(t, 7, 1).Lines()
	k := len(lines) / 2
	crashed := newTestServer(t, cfg)
	ingestAll(t, crashed, lines[:k])
	crashed.testSkipFinalSnapshot = true
	shutdownServer(t, crashed)

	s := newTestServer(t, cfg)
	ingestAll(t, s, lines[k:])
	if err := s.router.Flush(); err != nil {
		t.Fatal(err)
	}
	st := getStatusz(t, s)
	if len(st.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(st.Shards))
	}
	var total int64
	for i, row := range st.Shards {
		if row.Index != i {
			t.Errorf("shard %d reports index %d", i, row.Index)
		}
		if row.WAL == nil || row.Recovery == nil || row.Arbiter == nil {
			t.Errorf("shard %d row lacks a block: wal=%v recovery=%v arbiter=%v",
				i, row.WAL != nil, row.Recovery != nil, row.Arbiter != nil)
		}
		total += row.Lines
	}
	if total != int64(len(lines)-k) {
		t.Errorf("per-shard lines sum to %d, want %d", total, len(lines)-k)
	}
	sameBlocks(t, st, foldRows(st.Shards), "top level vs the fold of the shard rows")
	if rec := st.Recovery; rec == nil || !rec.Performed || rec.ReplayedRecords != uint64(k) {
		t.Errorf("top-level recovery %+v, want %d replayed records", rec, k)
	}
	if st.WAL == nil || st.WAL.LastIndex != uint64(len(lines)) {
		t.Errorf("top-level wal %+v, want last_index %d", st.WAL, len(lines))
	}
	if st.Manager.LinesScanned == 0 || st.Arbiter.Heartbeats == 0 {
		t.Error("summed manager or arbiter counters empty")
	}
}

// TestStatuszOneShardIsItsRow: at one shard every fold is the identity, so
// the top-level blocks a pre-sharding reader knows are shard 0's own.
func TestStatuszOneShardIsItsRow(t *testing.T) {
	s := newTestServer(t, Config{
		TCPAddr: "off",
		DataDir: t.TempDir(),
		Arbiter: &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute},
	})
	ingestAll(t, s, genTestLog(t, 7, 1).Lines())
	if err := s.router.Flush(); err != nil {
		t.Fatal(err)
	}
	st := getStatusz(t, s)
	if len(st.Shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(st.Shards))
	}
	row := st.Shards[0]
	if st.WAL == nil || st.Recovery == nil || st.Arbiter == nil {
		t.Fatalf("one-shard status lacks a top-level block: wal=%v recovery=%v arbiter=%v",
			st.WAL != nil, st.Recovery != nil, st.Arbiter != nil)
	}
	sameBlocks(t, st, Status{
		ParseErrors: row.ParseErrors, Manager: row.Manager,
		WAL: row.WAL, Recovery: row.Recovery, Arbiter: row.Arbiter,
	}, "one-shard top level vs shard 0's row")
}
