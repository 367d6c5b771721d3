package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/wal"
)

// However the pump cuts the stream into batches, the daemon must be
// observationally identical to one sequential predictor over the same lines:
// same predictions and failures (as a set, and in order per node), the input
// lines journaled in order, and byte-identical arbiter state whatever the
// batch size. These tests drive full servers — pump, WAL, Manager, arbiter —
// across four dialect families and batch sizes {1, 7, 256}, with chunked
// feeding that lets the queue run empty mid-stream and so cuts partial
// batches. Outputs are checked against a sequential predictor.Predictor,
// journals against the input, and arbiter snapshots against the in-order
// reference: one arbiter fed each line's heartbeat, then the sequential
// predictor's outputs for it. One row feeds the same stream over the TCP line
// listener, torn at seeded random write boundaries, so the framer and the
// chunk hand-off sit inside the comparison.

// pipeRun captures everything externally observable about one server run.
type pipeRun struct {
	keys    []string            // sorted multiset of output keys
	perNode map[string][]string // output keys in arrival order, per node
	wal     [][]byte            // journal payloads in index order
	arb     []byte              // canonical arbiter snapshot
}

func outNode(out predictor.Output) string {
	if out.Prediction != nil {
		return out.Prediction.Node
	}
	if out.Failure != nil {
		return out.Failure.Node
	}
	return ""
}

// feedTCP writes lines to the server's line listener over one connection, in
// writes of seeded random sizes that tear lines anywhere (a few bytes up to
// several socket reads' worth), and returns once every line is accepted —
// the connection handler enqueues asynchronously, and a Shutdown racing it
// would refuse lines still in the socket.
func feedTCP(t *testing.T, s *Server, lines []string, seed int64) {
	t.Helper()
	conn, err := net.Dial("tcp", s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(seed))
	stream := []byte(strings.Join(lines, "\n") + "\n")
	for len(stream) > 0 {
		n := 1 + rng.Intn(1<<uint(rng.Intn(18)))
		n = min(n, len(stream))
		if _, err := conn.Write(stream[:n]); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.pipe.Accepted() < int64(len(lines)) {
		if time.Now().After(deadline) {
			t.Fatalf("TCP feed: %d of %d lines accepted after 30s", s.pipe.Accepted(), len(lines))
		}
		time.Sleep(time.Millisecond)
	}
}

// runBatchPipe boots a persistent server with the given batching knobs,
// feeds lines (in chunks with pauses when chunked, so partial batches drain
// mid-stream; over TCP when tcpSeed is non-zero), shuts down without a final
// snapshot (the journal survives untruncated), and captures outputs, WAL
// records and arbiter state.
func runBatchPipe(t *testing.T, d *loggen.Dialect, lines []string, batchMax int, chunked bool, tcpSeed int64) pipeRun {
	t.Helper()
	dir := t.TempDir()
	mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr := "off"
	if tcpSeed != 0 {
		tcpAddr = "127.0.0.1:0"
	}
	s := New(mgr, Config{
		TCPAddr: tcpAddr, HTTPAddr: "off",
		DataDir: dir, Fsync: wal.SyncOff,
		BatchMax: batchMax,
		Arbiter:  arbiterTestConfig(),
	})
	s.testSkipFinalSnapshot = true
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
		for i, line := range lines {
			s.pipe.Ingest(line)
			if chunked && i%37 == 36 {
				// Let the pump catch up so the next batch starts mid-stream at
				// an arbitrary boundary — the forced partial-drain case.
				time.Sleep(200 * time.Microsecond)
			}
		}
		s.pipe.EndProduce()
	}
	shutdownServer(t, s)

	run := pipeRun{perNode: map[string][]string{}}
	for out := range sub.Out() {
		k := outKey(out)
		if k == "" {
			continue
		}
		run.keys = append(run.keys, k)
		n := outNode(out)
		run.perNode[n] = append(run.perNode[n], k)
	}
	sort.Strings(run.keys)

	var abuf bytes.Buffer
	if err := s.shards[0].Arbiter().Snapshot(&abuf); err != nil {
		t.Fatal(err)
	}
	run.arb = abuf.Bytes()

	wl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Sync: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	if err := wl.Replay(1, func(idx uint64, payload []byte) error {
		run.wal = append(run.wal, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return run
}

// sequentialRun is the independent reference: lines through one sequential
// predictor.Predictor, the journal a daemon must write for them — each line
// verbatim, in order (no generated line starts with the NUL byte the record
// framing escapes) — and the state of an arbiter fed in stream order.
func sequentialRun(t *testing.T, d *loggen.Dialect, lines []string) pipeRun {
	t.Helper()
	p, err := predictor.New(d.Chains(), d.Inventory(), predictor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	arb := arbiter.New(*arbiterTestConfig())
	run := pipeRun{perNode: map[string][]string{}}
	for _, line := range lines {
		run.wal = append(run.wal, []byte(line))
		out, err := observeInOrder(arb, p, line)
		if k := outKey(out); err == nil && k != "" {
			run.keys = append(run.keys, k)
			run.perNode[outNode(out)] = append(run.perNode[outNode(out)], k)
		}
	}
	sort.Strings(run.keys)
	var abuf bytes.Buffer
	if err := arb.Snapshot(&abuf); err != nil {
		t.Fatal(err)
	}
	run.arb = abuf.Bytes()
	return run
}

// observeInOrder runs one line through p and feeds a the line's heartbeat,
// then the prediction and failure it produced — per-node stream order, the
// arbiter's precondition, by construction.
func observeInOrder(a *arbiter.Arbiter, p *predictor.Predictor, line string) (predictor.Output, error) {
	if ts, node, _, err := lexgen.ParseLine(line); err == nil {
		a.ObserveHeartbeat(node, ts)
	}
	out, err := p.ProcessLine(line)
	if pr := out.Prediction; pr != nil {
		a.ObservePrediction(pr.Node, pr.ChainName, pr.MatchedAt)
	}
	if f := out.Failure; f != nil {
		a.ObserveFailure(f.Node, f.Time)
	}
	return out, err
}

// diffRuns compares got's outputs and journal with want's.
func diffRuns(t *testing.T, label string, want, got pipeRun) {
	t.Helper()
	if len(got.keys) != len(want.keys) {
		t.Errorf("%s: %d outputs, want %d", label, len(got.keys), len(want.keys))
	} else {
		for i := range want.keys {
			if got.keys[i] != want.keys[i] {
				t.Errorf("%s: output multiset diverges at %d: %q vs %q", label, i, got.keys[i], want.keys[i])
				break
			}
		}
	}
	for node, seq := range want.perNode {
		gs := got.perNode[node]
		if len(gs) != len(seq) {
			t.Errorf("%s: node %s emitted %d outputs, want %d", label, node, len(gs), len(seq))
			continue
		}
		for i := range seq {
			if gs[i] != seq[i] {
				t.Errorf("%s: node %s output order diverges at %d: %q vs %q", label, node, i, gs[i], seq[i])
				break
			}
		}
	}
	if len(got.wal) != len(want.wal) {
		t.Errorf("%s: %d WAL records, want %d", label, len(got.wal), len(want.wal))
	} else {
		for i := range want.wal {
			if !bytes.Equal(got.wal[i], want.wal[i]) {
				t.Errorf("%s: WAL record %d differs: %q vs %q", label, i+1, got.wal[i], want.wal[i])
				break
			}
		}
	}
}

// edgeCounts are the counters a client reads off /statusz, which the edge
// must leave exactly as the queue path sets them.
type edgeCounts struct {
	accepted, dropped, parseErrors int64
	scanned, tokens, discarded     int
	shardLines, shardParseErrors   []int64
}

// runEdgePipe boots a server with no journal and no arbiter — the edge on —
// over shards shards, feeds lines over the TCP line listener (through the
// edge, torn at seeded random write boundaries) when tcpSeed is non-zero and
// straight into the queue otherwise, shuts down and returns the outputs and
// counters.
func runEdgePipe(t *testing.T, d *loggen.Dialect, lines []string, shards int, tcpSeed int64) (pipeRun, edgeCounts) {
	t.Helper()
	mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TCPAddr: "off", HTTPAddr: "off", Shards: shards}
	if tcpSeed != 0 {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if !s.edge.on {
		t.Fatal("edge off with no journal, arbiter or cluster")
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

	run := pipeRun{perNode: map[string][]string{}}
	for out := range sub.Out() {
		if k := outKey(out); k != "" {
			run.keys = append(run.keys, k)
			run.perNode[outNode(out)] = append(run.perNode[outNode(out)], k)
		}
	}
	sort.Strings(run.keys)
	st := s.Status()
	c := edgeCounts{
		accepted: st.LinesAccepted, dropped: st.LinesDropped, parseErrors: st.ParseErrors,
		scanned: st.Manager.LinesScanned, tokens: st.Manager.Tokens, discarded: st.Manager.Discarded,
	}
	for _, row := range st.Shards {
		c.shardLines = append(c.shardLines, row.Lines)
		c.shardParseErrors = append(c.shardParseErrors, row.ParseErrors)
	}
	return run, c
}

// withMalformed interleaves lines with lines that do not parse (no space, no
// node, no timestamp) and one with an empty message, which parses and
// matches nothing.
func withMalformed(lines []string) []string {
	bad := []string{"garbage", "2015-03-14T04:58:57.640Z nodeonly", "notatime c0-0c0s0n0 msg", "2015-03-14T04:58:57.640Z c0-0c0s0n0 "}
	var out []string
	for i, line := range lines {
		if i%41 == 0 {
			out = append(out, bad[(i/41)%len(bad)])
		}
		out = append(out, line)
	}
	return out
}

// TestBatchPipelineEquivalence: for four dialect families, every batching
// configuration reproduces a sequential predictor's outputs, journals its
// input in order, and ends in the state of an arbiter fed in stream order.
// With no journal and no arbiter the edge drops lines as they land: fed
// over TCP it must reproduce the sequential predictor's outputs and leave
// every counter a client reads — accepted, scanned, discarded, parse errors,
// each shard row's lines — equal to the queue path's on the same input, at
// one shard and at two.
func TestBatchPipelineEquivalence(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	dialects := []*loggen.Dialect{
		loggen.DialectXC30, loggen.DialectXE6, loggen.DialectCassandra, loggen.DialectHadoop,
	}
	for di, d := range dialects {
		d := d
		seed := int64(31 + di)
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			log, err := loggen.Generate(loggen.Config{
				Dialect: d, Seed: seed, Duration: 45 * time.Minute,
				Nodes: 4, Failures: 2, BenignPerMinute: 2, AnomalyRate: 0.05,
			})
			if err != nil {
				t.Fatal(err)
			}
			lines := log.Lines()
			ref := sequentialRun(t, d, lines)
			if len(ref.keys) == 0 {
				t.Fatalf("reference run produced no outputs; the comparison would be vacuous")
			}
			cases := []struct {
				batchMax int
				chunked  bool
				tcpSeed  int64
			}{
				{1, false, 0},      // batches of one line
				{1, true, 0},       // batches of one line, chunked feed
				{7, false, 0},      // small batches, continuous feed
				{256, true, 0},     // large batches with forced mid-batch drains when the queue empties
				{256, false, seed}, // framer + chunk hand-off: TCP feed torn at random write boundaries
			}
			for _, c := range cases {
				label := fmt.Sprintf("batch=%d chunked=%v tcp=%d", c.batchMax, c.chunked, c.tcpSeed)
				got := runBatchPipe(t, d, lines, c.batchMax, c.chunked, c.tcpSeed)
				diffRuns(t, label, ref, got)
				if !bytes.Equal(got.arb, ref.arb) {
					t.Errorf("%s: arbiter snapshot differs from the in-order reference's (%d vs %d bytes)", label, len(got.arb), len(ref.arb))
				}
			}

			edgeLines := withMalformed(lines)
			edgeRef := sequentialRun(t, d, edgeLines)
			edgeRef.wal = nil // no journal
			for _, shards := range []int{1, 2} {
				label := fmt.Sprintf("edge shards=%d", shards)
				queued, want := runEdgePipe(t, d, edgeLines, shards, 0)
				diffRuns(t, label+" queue path", edgeRef, queued)
				got, counts := runEdgePipe(t, d, edgeLines, shards, seed)
				diffRuns(t, label+" over TCP", edgeRef, got)
				if fmt.Sprint(counts) != fmt.Sprint(want) {
					t.Errorf("%s: counters over TCP %+v, queue path %+v", label, counts, want)
				}
				if want.accepted != int64(len(edgeLines)) || want.parseErrors == 0 || want.discarded == 0 {
					t.Errorf("%s: queue path accepted %d of %d lines, %d parse errors, %d discarded: the comparison would be vacuous",
						label, want.accepted, len(edgeLines), want.parseErrors, want.discarded)
				}
			}
		})
	}
}
