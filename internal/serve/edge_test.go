package serve

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/registry"
	"repro/internal/wal"
)

// The edge (edge.go) drops the lines no failure chain needs on the
// connection goroutine. These tests drive it through s.edge.ingest — the
// function both transports call with each read's lines — one chunk at a
// time, so a swap or a shadow can be placed between a chunk's scan and its
// counts.

// edgeServer boots a server over model with no arbiter and no listeners:
// the edge is on, with or without cfg.DataDir.
func edgeServer(t *testing.T, model registry.Model, cfg Config) *Server {
	t.Helper()
	mgr, err := predictor.NewManager(model.Chains, model.Templates, model.Options, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TCPAddr, cfg.HTTPAddr = "off", "off"
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if !s.edge.on {
		t.Fatal("edge off on a server with no arbiter or cluster")
	}
	return s
}

// journalKinds reads the journal under dir and returns each record's kind
// and, for a line record, its line.
func journalKinds(t *testing.T, dir string) (kinds []string, lines []string) {
	t.Helper()
	wl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	err = wl.Replay(1, func(_ uint64, p []byte) error {
		switch {
		case string(p) == "\x00d":
			kinds = append(kinds, "mark")
		case len(p) == 18 && p[0] == 0 && p[1] == 'm':
			kinds = append(kinds, "epoch")
		default:
			kinds = append(kinds, "line")
			lines = append(lines, strings.TrimPrefix(string(p), "\x00l"))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return kinds, lines
}

func countKind(kinds []string, kind string) int {
	n := 0
	for _, k := range kinds {
		if k == kind {
			n++
		}
	}
	return n
}

// edgeIngest hands lines to the edge in chunks of n under one producer
// registration, running between(i) before chunk i.
func edgeIngest(t *testing.T, s *Server, lines []string, n int, between func(i int)) int {
	t.Helper()
	if !s.pipe.BeginProduce() {
		t.Fatal("server draining before any ingest")
	}
	defer s.pipe.EndProduce()
	accepted := 0
	for i := 0; len(lines) > 0; i++ {
		if between != nil {
			between(i)
		}
		k := min(n, len(lines))
		accepted += s.edge.ingest(lines[:k])
		lines = lines[k:]
	}
	return accepted
}

// settled waits until every accepted line is scanned or rejected as
// malformed and the queue is empty.
func settled(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, 30*time.Second, "accepted lines to be processed", func() bool {
		return s.pipe.Depth() == 0 && ingestBacklog(s) == 0
	})
}

// phraseLine is a raw line whose message instantiates template id of d's
// inventory (each wildcard becomes "x").
func phraseLine(t *testing.T, d *loggen.Dialect, id core.PhraseID, ts time.Time, node string) string {
	t.Helper()
	for _, tpl := range d.Inventory() {
		if tpl.ID == id {
			return lexgen.FormatLine(ts, node, strings.ReplaceAll(tpl.Pattern, "*", "x"))
		}
	}
	t.Fatalf("phrase %d not in the %s inventory", id, d.Name)
	return ""
}

// xc30Model is the registry form of the XC30 dialect's model; pruned drops
// its last chain, FC6, whose phrases 1118 and 1121 no other chain has.
func xc30Model(pruned bool) registry.Model {
	chains := loggen.DialectXC30.Chains()
	if pruned {
		chains = chains[:len(chains)-1]
	}
	return registry.Model{Chains: chains, Templates: loggen.DialectXC30.Inventory()}
}

// fc6Stream is benign traffic on four nodes with one complete FC6 instance
// on a fifth woven through it: under the pruned model FC6's own phrases are
// dropped and it never fires; under the full model it does.
func fc6Stream(t *testing.T) []string {
	t.Helper()
	benign := genTestLog(t, 41, 0).Lines()
	fc6 := loggen.DialectXC30.Chains()[len(loggen.DialectXC30.Chains())-1]
	ts, _, _, err := lexgen.ParseLine(benign[0])
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for i, id := range fc6.Phrases {
		lines = append(lines, benign[3*i:3*i+3]...)
		lines = append(lines, phraseLine(t, loggen.DialectXC30, id, ts.Add(time.Duration(i)*10*time.Second), "c9-9c9s9n9"))
	}
	return append(lines, benign[3*len(fc6.Phrases):]...)
}

// sequentialStats runs lines through one sequential predictor over model and
// returns its counters and prediction keys.
func sequentialStats(t *testing.T, model registry.Model, lines []string) (predictor.Stats, []string) {
	t.Helper()
	p, err := predictor.New(model.Chains, model.Templates, model.Options)
	if err != nil {
		t.Fatal(err)
	}
	var preds []string
	for _, line := range lines {
		out, err := p.ProcessLine(line)
		if err == nil && out.Prediction != nil {
			preds = append(preds, outKey(out))
		}
	}
	return p.Stats(), preds
}

// collectPredictions drains sub after shutdown and returns the prediction
// keys and the model fingerprints they are attributed to.
func collectPredictions(sub *Subscription) (keys, models []string) {
	for out := range sub.Out() {
		if out.Prediction != nil {
			keys = append(keys, outKey(out))
			models = append(models, out.Model)
		}
	}
	return keys, models
}

// TestEdgeSwapRescansDroppedLines: a hot-swap that lands between a chunk's
// scan and its counts makes the shard refuse the counts (the chunk was
// scanned under the old model), and the edge scans the chunk again under
// the new one. The server boots on the pruned model, the swap goes to the
// full one, and the whole stream is one chunk: FC6's phrases were dropped by
// the first scan, so without the rescan FC6 never fires. Every count
// reconciles with a sequential predictor on the new model.
//
// The server journals: the marks of the refused counts must not be written
// (they would land after the epoch record, counted under the old model), so
// the journal is the epoch record, one mark per line the new model drops and
// the kept lines; and a restart that replays it ends where the live run did.
func TestEdgeSwapRescansDroppedLines(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncOff}
	s := edgeServer(t, xc30Model(true), cfg)
	s.testSkipFinalSnapshot = true // crash: the whole journal replays
	full := xc30Model(false)
	entry, _, _, err := s.LoadModel(full, "test", false)
	if err != nil {
		t.Fatal(err)
	}
	lines := fc6Stream(t)
	scans := 0
	s.edge.testHookScanned = func() {
		if scans++; scans == 1 {
			if _, err := s.ActivateModel(entry.Fingerprint); err != nil {
				t.Error(err)
			}
		}
	}
	sub := s.Subscribe(1024)
	if got := edgeIngest(t, s, lines, len(lines), nil); got != len(lines) {
		t.Fatalf("edge accepted %d of %d lines", got, len(lines))
	}
	if scans != 2 {
		t.Fatalf("chunk scanned %d times across the swap, want 2", scans)
	}
	settled(t, s)
	st := s.Status()
	shutdownServer(t, s)

	want, wantPreds := sequentialStats(t, full, lines)
	_, prunedPreds := sequentialStats(t, xc30Model(true), lines)
	if len(wantPreds) <= len(prunedPreds) {
		t.Fatalf("full model predicts %d, pruned %d: the stream does not tell the models apart", len(wantPreds), len(prunedPreds))
	}
	keys, models := collectPredictions(sub)
	if strings.Join(keys, "\n") != strings.Join(wantPreds, "\n") {
		t.Fatalf("predictions after the swap:\n%v\nwant (full model):\n%v", keys, wantPreds)
	}
	for _, m := range models {
		if m != entry.Fingerprint {
			t.Fatalf("prediction attributed to %s, want the swapped-in %s", m, entry.Fingerprint)
		}
	}
	if st.LinesAccepted != int64(len(lines)) || st.LinesDropped != 0 {
		t.Fatalf("accepted %d dropped %d, want %d/0", st.LinesAccepted, st.LinesDropped, len(lines))
	}
	if st.Manager.LinesScanned != want.LinesScanned || st.Manager.Tokens != want.Tokens || st.Manager.Discarded != want.Discarded {
		t.Fatalf("manager scanned/tokens/discarded %d/%d/%d, want %d/%d/%d", st.Manager.LinesScanned, st.Manager.Tokens,
			st.Manager.Discarded, want.LinesScanned, want.Tokens, want.Discarded)
	}
	if st.Shards[0].Lines != int64(len(lines)) {
		t.Fatalf("shard row counts %d lines, want %d", st.Shards[0].Lines, len(lines))
	}

	kinds, kept := journalKinds(t, cfg.DataDir)
	marks := countKind(kinds, "mark")
	if len(kinds) != 1+len(lines) || kinds[0] != "epoch" || marks != want.Discarded || len(kept) != len(lines)-want.Discarded {
		t.Fatalf("journal of %d records (first %q), %d marks, %d lines; want the epoch record, then %d marks and %d lines",
			len(kinds), kinds[0], marks, len(kept), want.Discarded, len(lines)-want.Discarded)
	}

	re := edgeServer(t, xc30Model(true), cfg)
	rst := re.Status()
	var recovered []string
	for _, out := range re.Recovered() {
		if out.Prediction != nil {
			recovered = append(recovered, outKey(out))
		}
	}
	shutdownServer(t, re)
	if rst.Manager != st.Manager {
		t.Errorf("manager after replay %+v, live run %+v", rst.Manager, st.Manager)
	}
	if rec := rst.Recovery; rec == nil || rec.ReplayedMarks != uint64(want.Discarded) || rec.ReplayedSwaps != 1 || rec.ReplayErrors != 0 {
		t.Errorf("recovery %+v; want %d marks, 1 swap, no errors", rec, want.Discarded)
	}
	if strings.Join(recovered, "\n") != strings.Join(wantPreds, "\n") {
		t.Errorf("recovered predictions:\n%v\nwant:\n%v", recovered, wantPreds)
	}
	if m := rst.Model; m == nil || m.Active != entry.Fingerprint {
		t.Errorf("replay ended on model %+v, want %s", m, entry.Fingerprint)
	}
}

// TestEdgeShadowQueuesEveryLine: a shadow started mid-stream — here between
// a chunk's scan and its counts, the narrowest window — sees every line from
// that chunk on, the dropped ones included: the shard refuses the counts and
// the edge queues the shard's whole chunk. The primary's and the shadow's
// counts are those of a sequential predictor over the whole stream. The
// server journals: the chunks before the shadow leave a mark per dropped
// line, and from the shadow's first chunk on every line is a line record.
func TestEdgeShadowQueuesEveryLine(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncOff}
	s := edgeServer(t, xc30Model(false), cfg)
	s.testSkipFinalSnapshot = true
	variant := xc30Model(false)
	variant.Options = predictor.Options{Timeout: 4 * time.Minute} // same automaton, another version
	entry, _, _, err := s.LoadModel(variant, "test", false)
	if err != nil {
		t.Fatal(err)
	}
	lines := genTestLog(t, 17, 2).Lines()
	const chunk, startAt = 20, 3
	if len(lines) < 2*startAt*chunk {
		t.Fatalf("%d lines: too few to start a shadow mid-stream", len(lines))
	}
	armed := false
	s.edge.testHookScanned = func() {
		if armed {
			armed = false
			if _, err := s.StartShadow(entry.Fingerprint); err != nil {
				t.Error(err)
			}
		}
	}
	edgeIngest(t, s, lines, chunk, func(i int) {
		if i == startAt {
			// Lines of earlier chunks still in the queue would reach the
			// shadow too: let them through first.
			settled(t, s)
			armed = true
		}
	})
	settled(t, s)
	sh := s.shards[0].ShadowManager()
	if sh == nil {
		t.Fatal("no shadow running")
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	shutdownServer(t, s)

	// The shadow started with the primary's state and counters, so from
	// then on it must have scanned exactly what the primary did: a dropped
	// line counted at the edge while it ran would be missing from its
	// counts.
	want, _ := sequentialStats(t, xc30Model(false), lines)
	for _, c := range []struct {
		who string
		got predictor.Stats
	}{{"primary", st.Manager}, {"shadow", st.Shadow.Manager}} {
		if c.got.LinesScanned != want.LinesScanned || c.got.Tokens != want.Tokens || c.got.Discarded != want.Discarded {
			t.Errorf("%s scanned/tokens/discarded %d/%d/%d, want %d/%d/%d", c.who, c.got.LinesScanned, c.got.Tokens,
				c.got.Discarded, want.LinesScanned, want.Tokens, want.Discarded)
		}
	}
	if st.LinesAccepted != int64(len(lines)) {
		t.Fatalf("accepted %d, want %d", st.LinesAccepted, len(lines))
	}

	head := startAt * chunk
	headWant, _ := sequentialStats(t, xc30Model(false), lines[:head])
	kinds, journaled := journalKinds(t, cfg.DataDir)
	if len(kinds) != len(lines) || countKind(kinds, "mark") != headWant.Discarded || countKind(kinds[head:], "mark") != 0 {
		t.Fatalf("journal of %d records with %d marks (%d after record %d); want %d records, %d marks, all before the shadow",
			len(kinds), countKind(kinds, "mark"), countKind(kinds[min(head, len(kinds)):], "mark"), head, len(lines), headWant.Discarded)
	}
	tail := journaled[len(journaled)-(len(lines)-head):]
	if strings.Join(tail, "\n") != strings.Join(lines[head:], "\n") {
		t.Fatal("the lines from the shadow's first chunk on are not journaled whole and in order")
	}
}

// TestEdgeChunkAllocs pins the edge at zero allocations per chunk in steady
// state, with one shard and with two, with and without a journal: the header
// parse and scan in place, the per-shard count and its discard marks, and the
// queueing (and journaling) of the kept lines.
func TestEdgeChunkAllocs(t *testing.T) {
	lg, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 3, Duration: 2 * time.Hour,
		Nodes: 16, BenignPerMinute: 3, AnomalyRate: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunk := lg.Lines()[:512]
	for _, shards := range []int{1, 2} {
		for _, journal := range []bool{false, true} {
			cfg := Config{Shards: shards}
			if journal {
				cfg.DataDir, cfg.Fsync = t.TempDir(), wal.SyncOff
			}
			s := edgeServer(t, xc30Model(false), cfg)
			if !s.pipe.BeginProduce() {
				t.Fatal("server draining before any ingest")
			}
			for i := 0; i < 64; i++ { // freelists, drivers and buffers reach their high-water marks
				s.edge.ingest(chunk)
			}
			settled(t, s)
			st := s.Status()
			if st.Manager.Tokens == 0 || st.Manager.Discarded == 0 {
				t.Fatalf("shards=%d journal=%v: %d tokens, %d discarded: the chunk must both keep and drop lines",
					shards, journal, st.Manager.Tokens, st.Manager.Discarded)
			}
			if journal && (st.WAL == nil || st.WAL.LastIndex != uint64(64*len(chunk))) {
				t.Fatalf("shards=%d: journal %+v, want one record per line (%d)", shards, st.WAL, 64*len(chunk))
			}
			allocs := testing.AllocsPerRun(200, func() { s.edge.ingest(chunk) })
			s.pipe.EndProduce()
			shutdownServer(t, s)
			t.Logf("shards=%d journal=%v: %.2f allocs per %d-line chunk", shards, journal, allocs, len(chunk))
			if allocs != 0 {
				t.Errorf("shards=%d journal=%v: edge ingest %.2f allocs per chunk, want 0", shards, journal, allocs)
			}
		}
	}
}
