package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/parser"
	"repro/internal/predictor"
)

// newTestServer boots a Server over the XC30 dialect on loopback ephemeral
// ports and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
		predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func genTestLog(t *testing.T, seed int64, failures int) *loggen.Log {
	t.Helper()
	log, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: seed, Duration: 45 * time.Minute,
		Nodes: 4, Failures: failures, BenignPerMinute: 2,
		// No background anomalies: the injected chain is the only possible
		// match, so prediction counts are exact.
		AnomalyRate: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func (s *Server) httpBase() string { return "http://" + s.HTTPAddr().String() }

// TestPredictionsStreamDeliversBurst: /predictions flushes only when its
// subscription is drained, so a burst goes out in few writes — and the last
// output of a burst must still arrive with nothing published after it.
func TestPredictionsStreamDeliversBurst(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outs, _, err := (&Client{Base: s.httpBase()}).Predictions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		s.hub.publish(predictor.Output{Prediction: &parser.Prediction{Node: fmt.Sprint("n", i), Length: i}})
	}
	for i := 0; i < n; i++ {
		select {
		case out, ok := <-outs:
			if !ok {
				t.Fatalf("stream ended after %d of %d outputs", i, n)
			}
			if p := out.Prediction; p == nil || p.Length != i {
				t.Fatalf("output %d = %+v, want prediction %d", i, out, i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d of %d outputs; the rest of the burst was never flushed", i, n)
		}
	}
}

// TestServeEndToEndTCP is the acceptance-criteria test: one injected failure
// streamed over the TCP line protocol yields exactly one prediction on the
// /predictions subscription with non-negative lead time, /statusz counters
// reconcile with the lines sent, and the block-mode drain loses nothing.
func TestServeEndToEndTCP(t *testing.T) {
	s := newTestServer(t, Config{Overflow: Block, QueueSize: 64})
	log := genTestLog(t, 5, 1)
	lines := log.Lines()

	cl := &Client{Base: s.httpBase()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Ready(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	outs, errc, err := cl.Predictions(ctx)
	if err != nil {
		t.Fatal(err)
	}

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

	// Graceful drain: flush everything, then the subscription stream ends.
	sctx, scancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var preds []*struct {
		Node      string
		ChainName string
		MatchedAt time.Time
	}
	var failAt time.Time
	var failNode string
	for out := range outs {
		if p := out.Prediction; p != nil {
			preds = append(preds, &struct {
				Node      string
				ChainName string
				MatchedAt time.Time
			}{p.Node, p.ChainName, p.MatchedAt})
		}
		if f := out.Failure; f != nil {
			failAt, failNode = f.Time, f.Node
		}
	}
	if err, ok := <-errc; ok && err != nil {
		t.Fatalf("prediction stream: %v", err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions, want exactly 1: %+v", len(preds), preds)
	}
	if failAt.IsZero() {
		t.Fatal("observed failure never arrived on the subscription")
	}
	if preds[0].Node != failNode {
		t.Errorf("prediction node %s, failure node %s", preds[0].Node, failNode)
	}
	if lead := failAt.Sub(preds[0].MatchedAt); lead < 0 {
		t.Errorf("negative lead time %s", lead)
	}

	st := s.Status()
	sent := int64(len(lines))
	if st.LinesAccepted+st.LinesDropped != sent {
		t.Errorf("accepted(%d)+dropped(%d) != sent(%d)", st.LinesAccepted, st.LinesDropped, sent)
	}
	if st.LinesDropped != 0 {
		t.Errorf("block mode dropped %d lines", st.LinesDropped)
	}
	if st.Manager.LinesScanned != int(sent) {
		t.Errorf("manager scanned %d lines, want %d (drain lost lines)", st.Manager.LinesScanned, sent)
	}
	if !st.Draining {
		t.Error("status not draining after Shutdown")
	}
}

// TestServeDrainBlockNoLoss pushes a large stream through a tiny queue so
// the drain happens with producers blocked on backpressure; every accepted
// line must still reach the Manager.
func TestServeDrainBlockNoLoss(t *testing.T) {
	s := newTestServer(t, Config{Overflow: Block, QueueSize: 4})
	log := genTestLog(t, 11, 2)
	lines := log.Lines()

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
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st := s.Status()
	if st.LinesAccepted != int64(len(lines)) || st.LinesDropped != 0 {
		t.Fatalf("accepted=%d dropped=%d, want accepted=%d dropped=0",
			st.LinesAccepted, st.LinesDropped, len(lines))
	}
	if st.Manager.LinesScanned != len(lines) {
		t.Fatalf("manager scanned %d of %d accepted lines", st.Manager.LinesScanned, len(lines))
	}
}

// TestServeShedCountsDrops stalls the pump behind a 2-slot queue in Shed
// mode: the overflow must be dropped and counted, accepted+dropped must
// equal sent, and every *accepted* line must still be processed. The stream
// interleaves benign lines with lines the model keeps: the edge counts the
// benign ones where they land, so they never wait in the queue, are never
// shed and never count in lines_dropped — only kept lines overflow.
func TestServeShedCountsDrops(t *testing.T) {
	mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(),
		predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := New(mgr, Config{Overflow: Shed, QueueSize: 2, TCPAddr: "off"})
	stall := make(chan struct{})
	s.testHookPumpDelay = func() { <-stall }
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	var lines []string
	for i, line := range genTestLog(t, 3, 1).Lines()[:50] {
		lines = append(lines, line)
		if i%2 == 0 {
			ts, node, _, err := lexgen.ParseLine(line)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, phraseLine(t, loggen.DialectXC30, 1101, ts, node))
		}
	}
	kept := 0
	for _, line := range lines {
		if _, ok, err := mgr.Model().Scanner().ScanLine(line); err == nil && ok {
			kept++
		}
	}
	cl := &Client{Base: s.httpBase()}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := cl.Ingest(ctx, lines)
	if err != nil {
		t.Fatal(err)
	}
	close(stall)
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if res.Accepted+res.Dropped != len(lines) {
		t.Errorf("ingest result accepted(%d)+dropped(%d) != sent(%d)", res.Accepted, res.Dropped, len(lines))
	}
	if res.Dropped == 0 {
		t.Error("shed mode with stalled pump dropped nothing")
	}
	if res.Dropped > kept {
		t.Errorf("%d lines shed, but only %d of the %d sent are lines the model keeps", res.Dropped, kept, len(lines))
	}
	st := s.Status()
	if st.LinesAccepted+st.LinesDropped != int64(len(lines)) || st.LinesDropped != int64(res.Dropped) {
		t.Errorf("status accepted(%d)+dropped(%d) != sent(%d), or dropped != the ingest result's %d",
			st.LinesAccepted, st.LinesDropped, len(lines), res.Dropped)
	}
	if st.Manager.LinesScanned != int(st.LinesAccepted) {
		t.Errorf("manager scanned %d, accepted %d", st.Manager.LinesScanned, st.LinesAccepted)
	}
	if want := len(lines) - kept; st.Manager.Discarded != want || st.Manager.Tokens != kept-res.Dropped {
		t.Errorf("manager discarded %d, tokens %d; want every one of the %d lines the model drops discarded and %d tokens",
			st.Manager.Discarded, st.Manager.Tokens, want, kept-res.Dropped)
	}
}

// TestServeHTTPIngest covers the NDJSON framing: JSON frames, bare raw
// lines, and malformed frames.
func TestServeHTTPIngest(t *testing.T) {
	s := newTestServer(t, Config{TCPAddr: "off"})
	base := s.httpBase()

	body := strings.Join([]string{
		`{"line":"2015-03-14T04:58:57.640Z c0-0c0s0n0 benign message"}`,
		``, // blank frames are skipped
		`2015-03-14T04:58:58.640Z c0-0c0s0n1 raw form is fine too`,
		`{"not-a-frame": true}`,
		`{bad json`,
	}, "\n")
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %s", resp.Status)
	}
	var res IngestResult
	if err := jsonDecode(resp, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Malformed != 2 || res.Dropped != 0 {
		t.Fatalf("IngestResult = %+v, want accepted=2 malformed=2 dropped=0", res)
	}

	for _, ep := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s status %s", ep, r.Status)
		}
	}
	cl := &Client{Base: base}
	st, err := cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueCapacity == 0 || st.Overflow != string(Block) {
		t.Errorf("statusz = %+v", st)
	}
}

// TestServeSubscribersAttachDetach verifies the fan-out: two subscribers see
// the same outputs, cancelling one does not disturb the other, and the
// survivor's channel closes on drain.
func TestServeSubscribersAttachDetach(t *testing.T) {
	s := newTestServer(t, Config{TCPAddr: "off"})
	log := genTestLog(t, 5, 1)

	early := s.Subscribe(0)
	stay := s.Subscribe(0)
	early.Cancel()
	early.Cancel() // idempotent

	cl := &Client{Base: s.httpBase()}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := cl.Ingest(ctx, log.Lines()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if _, ok := <-early.Out(); ok {
		t.Error("cancelled subscription still delivered")
	}
	preds := 0
	for out := range stay.Out() {
		if out.Prediction != nil {
			preds++
		}
	}
	if preds != 1 {
		t.Errorf("surviving subscriber saw %d predictions, want 1", preds)
	}
	// Post-drain subscriptions come back already closed instead of hanging.
	late := s.Subscribe(0)
	if _, ok := <-late.Out(); ok {
		t.Error("post-drain subscription delivered")
	}
}

// TestServeIngestAfterDrain: batches racing the drain are rejected whole
// with 503, never half-accepted.
func TestServeIngestAfterDrain(t *testing.T) {
	s := newTestServer(t, Config{TCPAddr: "off"})
	base := s.httpBase()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// HTTP stays up only through the drain itself; afterwards either the
	// request fails to connect or it is rejected — both are acceptable,
	// accepting lines is not.
	resp, err := http.Post(base+"/ingest", "application/x-ndjson",
		strings.NewReader("2015-03-14T04:58:57.640Z c0-0c0s0n0 too late"))
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("ingest accepted after drain")
		}
	}
	if got := s.Status().LinesAccepted; got != 0 {
		t.Fatalf("accepted %d lines after drain", got)
	}
}

func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
