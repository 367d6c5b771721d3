package serve

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/registry"
)

// The edge (edge.go) drops the lines no failure chain needs on the
// connection goroutine. These tests drive it through s.edge.ingest — the
// function both transports call with each read's lines — one chunk at a
// time, so a swap or a shadow can be placed between a chunk's scan and its
// counts.

// edgeServer boots a server over model with the model lifecycle on, no
// journal, no arbiter and no listeners: the edge is on.
func edgeServer(t *testing.T, model registry.Model, cfg Config) *Server {
	t.Helper()
	mgr, err := predictor.NewManager(model.Chains, model.Templates, model.Options, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TCPAddr, cfg.HTTPAddr, cfg.Model = "off", "off", &model
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if !s.edge.on {
		t.Fatal("edge off on a server with no journal, arbiter or cluster")
	}
	return s
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
func TestEdgeSwapRescansDroppedLines(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	s := edgeServer(t, xc30Model(true), Config{})
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
}

// TestEdgeShadowQueuesEveryLine: a shadow started mid-stream — here between
// a chunk's scan and its counts, the narrowest window — sees every line from
// that chunk on, the dropped ones included: the shard refuses the counts and
// the edge queues the shard's whole chunk. The primary's and the shadow's
// counts are those of a sequential predictor over the whole stream.
func TestEdgeShadowQueuesEveryLine(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	s := edgeServer(t, xc30Model(false), Config{})
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
}

// TestEdgeChunkAllocs pins the edge at zero allocations per chunk in steady
// state, with one shard and with two: the header parse and scan in place,
// the per-shard count, and the queueing of the kept lines.
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
		s := edgeServer(t, xc30Model(false), Config{Shards: shards})
		if !s.pipe.BeginProduce() {
			t.Fatal("server draining before any ingest")
		}
		for i := 0; i < 64; i++ { // freelists, drivers and buffers reach their high-water marks
			s.edge.ingest(chunk)
		}
		settled(t, s)
		if st := s.Status(); st.Manager.Tokens == 0 || st.Manager.Discarded == 0 {
			t.Fatalf("shards=%d: %d tokens, %d discarded: the chunk must both keep and drop lines", shards, st.Manager.Tokens, st.Manager.Discarded)
		}
		allocs := testing.AllocsPerRun(200, func() { s.edge.ingest(chunk) })
		s.pipe.EndProduce()
		shutdownServer(t, s)
		t.Logf("shards=%d: %.2f allocs per %d-line chunk", shards, allocs, len(chunk))
		if allocs != 0 {
			t.Errorf("shards=%d: edge ingest %.2f allocs per chunk, want 0", shards, allocs)
		}
	}
}
