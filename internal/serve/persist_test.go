package serve

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/wal"
)

// newPersistentServer boots a Server with durability on over dir. Shutdown
// is NOT registered as cleanup — these tests drive the lifecycle explicitly.
func newPersistentServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
		predictor.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TCPAddr == "" {
		cfg.TCPAddr = "off"
	}
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// ingestAll pushes lines through the HTTP ingest path and returns once the
// pump has journaled them and the workers have scanned them. POST /ingest
// answers when the lines are queued; a caller that snapshots, crashes or reads
// counters next must not race the pump.
func ingestAll(t *testing.T, s *Server, lines []string) {
	t.Helper()
	// Callers ingest only through this helper, so the server is idle here and
	// the backlog is a constant of the boot: lines restored from a snapshot or
	// replayed count as scanned but never as accepted.
	idle := ingestBacklog(s)
	cl := &Client{Base: s.httpBase()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Ingest(ctx, lines)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != len(lines) {
		t.Fatalf("ingest accepted %d of %d", res.Accepted, len(lines))
	}
	for {
		if s.pipe.Depth() == 0 && ingestBacklog(s) == idle {
			return
		}
		if ctx.Err() != nil {
			st := s.Status()
			t.Fatalf("accepted lines never reached the scanners: %d accepted, %d scanned, %d parse errors, queue depth %d",
				st.LinesAccepted, st.Manager.LinesScanned, st.ParseErrors, st.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}
}

// streamLines sends lines over the TCP line protocol, closes the connection
// and, like ingestAll, returns once every line is accepted and processed: a
// closed connection means queued, not scanned. A line forwarded to its owning
// peer counts as processed here.
func streamLines(t *testing.T, s *Server, lines []string) {
	t.Helper()
	want := s.pipe.Accepted() + int64(len(lines))
	idle := ingestBacklog(s)
	conn, err := DialLines(s.TCPAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		if err := conn.Send(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "streamed lines to be processed", func() bool {
		return s.pipe.Accepted() == want && s.pipe.Depth() == 0 && ingestBacklog(s) == idle
	})
}

// ingestBacklog is the number of accepted lines that are neither scanned,
// rejected as malformed nor handed to a peer yet, up to a per-boot constant.
func ingestBacklog(s *Server) int64 {
	n := s.pipe.Accepted()
	for _, sh := range s.group.Shards() {
		st := sh.Stats()
		n -= int64(st.Manager.LinesScanned) + st.ParseErrors
	}
	if c := s.cluster; c != nil {
		n -= c.forwardedOut.Load() + c.misrouted.Load()
	}
	return n
}

func outKey(out predictor.Output) string {
	if p := out.Prediction; p != nil {
		return fmt.Sprintf("P/%s/%s/%d/%d/%d", p.Node, p.ChainName, p.FirstAt.UnixNano(), p.MatchedAt.UnixNano(), p.Length)
	}
	if f := out.Failure; f != nil {
		return fmt.Sprintf("F/%s/%d/%d", f.Node, f.Phrase, f.Time.UnixNano())
	}
	return ""
}

// referenceKeys runs the lines through a serial predictor, returning the
// canonical set of outputs an uninterrupted run produces.
func referenceKeys(t *testing.T, lines []string) []string {
	t.Helper()
	p, err := predictor.New(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range lines {
		out, err := p.ProcessLine(line)
		if err != nil {
			continue
		}
		if k := outKey(out); k != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func persistLog(t *testing.T, seed int64) []string {
	t.Helper()
	log, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: seed, Duration: 45 * time.Minute,
		Nodes: 4, Failures: 2, BenignPerMinute: 2, AnomalyRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return log.Lines()
}

// TestServeGracefulRestartFromSnapshot: a clean shutdown writes a final
// snapshot; the next boot restores it without replaying anything, and the
// manager's counters carry over exactly. With no arbiter the edge journaled
// each line the model dropped as a discard mark.
func TestServeGracefulRestartFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	lines := persistLog(t, 61)

	a := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff})
	ingestAll(t, a, lines)
	shutdownServer(t, a)
	aStats := a.Status().Manager

	b := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff})
	defer shutdownServer(t, b)
	st := b.Status()
	if st.Recovery == nil || !st.Recovery.Performed {
		t.Fatal("no recovery reported after restart")
	}
	if st.Recovery.SnapshotIndex != uint64(len(lines)) {
		t.Errorf("snapshot index %d, want %d (all lines covered)", st.Recovery.SnapshotIndex, len(lines))
	}
	if st.Recovery.ReplayedRecords != 0 {
		t.Errorf("replayed %d records after clean shutdown, want 0", st.Recovery.ReplayedRecords)
	}
	if st.Manager != aStats {
		t.Errorf("manager stats did not carry over:\n got %+v\nwant %+v", st.Manager, aStats)
	}
	if st.WAL == nil || !st.WAL.Enabled {
		t.Fatal("wal block missing from status")
	}
	if st.WAL.LastIndex != uint64(len(lines)) {
		t.Errorf("wal last index %d, want %d", st.WAL.LastIndex, len(lines))
	}
	kinds, _ := journalKinds(t, dir)
	if marks := countKind(kinds, "mark"); marks != aStats.Discarded || marks == 0 || countKind(kinds, "line") != len(lines)-marks {
		t.Errorf("journal holds %d marks and %d lines; the live run discarded %d of %d lines",
			marks, countKind(kinds, "line"), aStats.Discarded, len(lines))
	}
}

// TestServeCrashRecoveryReplaysWAL: a crash (no final snapshot) loses
// nothing — boot-time replay re-derives every output from the journal, and
// /predictions?replay=recovered hands them to reconnecting subscribers.
func TestServeCrashRecoveryReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	lines := persistLog(t, 62)
	want := referenceKeys(t, lines)
	if len(want) == 0 {
		t.Fatal("reference run produced no outputs")
	}

	a := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncAlways})
	a.testSkipFinalSnapshot = true // emulate a crash: journal survives, no snapshot
	ingestAll(t, a, lines)
	shutdownServer(t, a)
	discarded := a.Status().Manager.Discarded

	b := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncAlways})
	defer shutdownServer(t, b)
	st := b.Status()
	if st.Recovery == nil || !st.Recovery.Performed {
		t.Fatal("no recovery reported")
	}
	if st.Recovery.ReplayedRecords != uint64(len(lines)) {
		t.Errorf("replayed %d, want %d (full journal)", st.Recovery.ReplayedRecords, len(lines))
	}
	// The edge journaled each line the model dropped as a discard mark.
	if st.Recovery.ReplayedMarks != uint64(discarded) || discarded == 0 {
		t.Errorf("replayed %d discard marks; the live run discarded %d lines", st.Recovery.ReplayedMarks, discarded)
	}
	var got []string
	for _, out := range b.Recovered() {
		if k := outKey(out); k != "" {
			got = append(got, k)
		}
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("recovered outputs diverge from uninterrupted run:\n got %v\nwant %v", got, want)
	}

	// The HTTP surface serves the same list.
	resp, err := http.Get(b.httpBase() + "/predictions?replay=recovered")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var viaHTTP int
	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(10 * time.Second)
	done := make(chan int, 1)
	go func() {
		n := 0
		for sc.Scan() {
			if len(sc.Bytes()) > 0 {
				n++
			}
			if n == len(want) {
				break
			}
		}
		done <- n
	}()
	select {
	case viaHTTP = <-done:
	case <-deadline:
		t.Fatal("timed out reading recovered outputs over HTTP")
	}
	if viaHTTP != len(want) {
		t.Errorf("HTTP replay returned %d outputs, want %d", viaHTTP, len(want))
	}
}

// TestServeMidStreamSnapshotAndCrash: snapshot mid-stream, keep streaming,
// crash. Recovery must resume from the snapshot, replay exactly the journal
// tail, and the union of pre-crash deliveries, recovered outputs, and
// post-restart live outputs must equal the uninterrupted run.
func TestServeMidStreamSnapshotAndCrash(t *testing.T) {
	dir := t.TempDir()
	lines := persistLog(t, 63)
	want := referenceKeys(t, lines)
	half := len(lines) / 2
	tail := (len(lines) * 3) / 4

	// Tiny segments so truncation after the snapshot is observable: most
	// lines are 2-byte discard marks, ten bytes a record.
	a := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff, WALSegmentSize: 1 << 10})
	a.testSkipFinalSnapshot = true
	subA := a.Subscribe(1 << 16)
	ingestAll(t, a, lines[:half])
	if err := a.shards[0].Snapshot(); err != nil {
		t.Fatal(err)
	}
	stA := a.Status()
	if stA.WAL.SnapshotsWritten != 1 || stA.WAL.LastSnapshotIndex != uint64(half) {
		t.Fatalf("snapshot bookkeeping: %+v", stA.WAL)
	}
	if stA.WAL.FirstIndex <= 1 {
		t.Errorf("journal not truncated after snapshot (first index %d)", stA.WAL.FirstIndex)
	}
	ingestAll(t, a, lines[half:tail])
	shutdownServer(t, a) // crash: no final snapshot
	tailDiscarded := a.Status().Manager.Discarded - stA.Manager.Discarded
	var seen []string
	for out := range subA.Out() {
		if k := outKey(out); k != "" {
			seen = append(seen, k)
		}
	}

	b := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff, WALSegmentSize: 1 << 10})
	st := b.Status()
	if st.Recovery.SnapshotIndex != uint64(half) {
		t.Errorf("recovered snapshot index %d, want %d", st.Recovery.SnapshotIndex, half)
	}
	if st.Recovery.ReplayedRecords != uint64(tail-half) {
		t.Errorf("replayed %d, want %d (journal tail only)", st.Recovery.ReplayedRecords, tail-half)
	}
	if st.Recovery.ReplayedMarks != uint64(tailDiscarded) || tailDiscarded == 0 {
		t.Errorf("replayed %d discard marks; the live run discarded %d lines after the snapshot", st.Recovery.ReplayedMarks, tailDiscarded)
	}
	for _, out := range b.Recovered() {
		if k := outKey(out); k != "" {
			seen = append(seen, k)
		}
	}
	subB := b.Subscribe(1 << 16)
	ingestAll(t, b, lines[tail:])
	shutdownServer(t, b)
	for out := range subB.Out() {
		if k := outKey(out); k != "" {
			seen = append(seen, k)
		}
	}

	// Union (the snapshot ↔ crash window can re-derive outputs already
	// delivered before the crash — duplicates, never losses).
	uniq := map[string]bool{}
	for _, k := range seen {
		uniq[k] = true
	}
	got := make([]string, 0, len(uniq))
	for k := range uniq {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("union of outputs diverges:\n got %d keys\nwant %d keys\n got: %v\nwant: %v",
			len(got), len(want), got, want)
	}
}

// TestServePeriodicSnapshotLoop: the background snapshotter fires on its own
// and keeps the journal bounded.
func TestServePeriodicSnapshotLoop(t *testing.T) {
	dir := t.TempDir()
	lines := persistLog(t, 64)

	s := newPersistentServer(t, Config{
		DataDir: dir, Fsync: wal.SyncBatch,
		SnapshotInterval: 50 * time.Millisecond,
		WALSegmentSize:   4 << 10,
	})
	ingestAll(t, s, lines)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Status()
		if st.WAL.SnapshotsWritten >= 1 && st.WAL.LastSnapshotIndex == uint64(len(lines)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("periodic snapshot never covered the stream: %+v", st.WAL)
		}
		time.Sleep(20 * time.Millisecond)
	}
	shutdownServer(t, s)

	// Restart: everything covered by snapshots, nothing to replay.
	b := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncBatch})
	defer shutdownServer(t, b)
	if st := b.Status(); st.Recovery.ReplayedRecords != 0 {
		t.Errorf("replayed %d records despite periodic snapshots", st.Recovery.ReplayedRecords)
	}
}

// TestServeRejectsInconsistentDataDir: a snapshot claiming to cover more of
// the journal than exists must fail the boot loudly.
func TestServeRejectsInconsistentDataDir(t *testing.T) {
	dir := t.TempDir()
	lines := persistLog(t, 65)

	a := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff})
	ingestAll(t, a, lines[:20])
	shutdownServer(t, a)

	// Corrupt the dir: claim the snapshot covers far more than the journal.
	off, payload, ok, err := wal.LatestSnapshot(dir + "/snapshots")
	if err != nil || !ok {
		t.Fatalf("no snapshot after shutdown: %v", err)
	}
	if _, err := wal.WriteSnapshotFile(dir+"/snapshots", off+1000, payload); err != nil {
		t.Fatal(err)
	}

	mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
		predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, Config{TCPAddr: "off", DataDir: dir, Fsync: wal.SyncOff})
	if err := s.Start(); err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		t.Fatal("Start succeeded on an inconsistent data dir")
	}
}
