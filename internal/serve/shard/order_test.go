package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/predictor"
	"repro/internal/recycle"
	"repro/internal/wal"
)

// The arbiter needs each node's events in stream order: a line's heartbeat,
// then what the line produced, then the next line's heartbeat. These tests
// put a live shard where that order is easiest to lose — a long restart
// inside one batch, a stalled Publish, a worker that lags another — and
// compare its arbiter with one fed in stream order from a sequential
// predictor.

var orderBase = time.Date(2015, 3, 14, 0, 0, 0, 0, time.UTC)

// inOrderArbiter is the reference: an arbiter under cfg fed each parseable
// line's heartbeat, then the prediction and failure a sequential predictor
// makes of the line.
func inOrderArbiter(t *testing.T, model *predictor.Model, cfg arbiter.Config, lines []string) *arbiter.Arbiter {
	t.Helper()
	a := arbiter.New(cfg)
	p := model.NewPredictor()
	for _, line := range lines {
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			continue
		}
		a.ObserveHeartbeat(node, ts)
		out, err := p.ProcessLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if pr := out.Prediction; pr != nil {
			a.ObservePrediction(pr.Node, pr.ChainName, pr.MatchedAt)
		}
		if f := out.Failure; f != nil {
			a.ObserveFailure(f.Node, f.Time)
		}
	}
	return a
}

// sameArbiter fails t unless got's snapshot equals want's, showing the
// alerts and chain ledgers when they differ.
func sameArbiter(t *testing.T, got, want *arbiter.Arbiter) {
	t.Helper()
	var gb, wb bytes.Buffer
	if err := got.Snapshot(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Snapshot(&wb); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(gb.Bytes(), wb.Bytes()) {
		return
	}
	show := func(a *arbiter.Arbiter) string {
		js, err := json.Marshal(struct {
			Alerts []arbiter.Alert
			Chains []arbiter.ChainStatus
		}{a.Alerts(), a.Status().Chains})
		if err != nil {
			t.Fatal(err)
		}
		return string(js)
	}
	t.Fatalf("arbiter state differs from the in-order reference:\n live     %s\n in order %s", show(got), show(want))
}

func newArbiterLocal(model *predictor.Model, workers int, publish func(predictor.Output)) *Local {
	l := New(model.NewManager(workers), Config{
		Fsync:   wal.SyncOff,
		Arbiter: &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute},
		Logf:    func(string, ...any) {},
		Publish: publish,
	})
	l.Start()
	return l
}

// TestArbiterRestartInOneBatch: one 221-line batch on one worker — a node
// logs 20 lines, fails, and logs 200 lines after its restart. The arbiter
// must place the restart at the first post-failure line, as in-order delivery
// does; its up-since time sets the node's flap evidence.
func TestArbiterRestartInOneBatch(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	model := xc30Model(t)
	const node = "c0-0c0s1n2"
	var lines []string
	ts := orderBase
	for i := 0; i < 20; i++ {
		lines = append(lines, lexgen.FormatLine(ts, node, fmt.Sprintf("slurmd: launch task %d for job 7", i)))
		ts = ts.Add(10 * time.Second)
	}
	lines = append(lines, lexgen.FormatLine(ts, node, "cb_node_unavailable: halted"))
	ts = ts.Add(5 * time.Minute)
	for i := 0; i < 200; i++ {
		lines = append(lines, lexgen.FormatLine(ts, node, fmt.Sprintf("slurmd: done with job %d", i)))
		ts = ts.Add(10 * time.Second)
	}

	l := newArbiterLocal(model, 1, func(predictor.Output) {})
	defer closeTestLocal(t, l)
	l.SubmitBatch(lines)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	sameArbiter(t, l.Arbiter(), inOrderArbiter(t, model, l.Arbiter().Config(), lines))
}

// fc2Stream is two nodes' lines, one pair every 15 s for an hour: node a
// completes chain FC2 at minute 10 and fails at minute 15, inside the 20
// minute horizon, so the prediction is a true positive; node b only chatters.
func fc2Stream(a, b string) []string {
	precursors := []string{ // FC2's phrases before its terminal one
		"node heartbeat fault: hsn0 missed 3",
		"bcsysd: voltage fault on blade c0-0c0s1",
		"mce: [Hardware Error]: Machine check events logged 2",
		"Kernel panic - not syncing: Fatal machine check",
	}
	var lines []string
	for i := 0; i < 240; i++ {
		ts := orderBase.Add(time.Duration(i) * 15 * time.Second)
		msg := fmt.Sprintf("slurmd: done with job %d", i)
		switch {
		case i >= 37 && i < 41:
			msg = precursors[i-37]
		case i == 60:
			msg = "cb_node_unavailable: halted"
		}
		lines = append(lines, lexgen.FormatLine(ts, a, msg), lexgen.FormatLine(ts, b, fmt.Sprintf("nfs: server s%d OK", i)))
	}
	return lines
}

// workerOf is the manager's node → worker placement (FNV-1a).
func workerOf(node string, workers int) int {
	h := fnv.New32a()
	h.Write([]byte(node))
	return int(h.Sum32() % uint32(workers))
}

// TestArbiterChainLedgerUnderLag: node a's chain fires, its failure lands
// inside the horizon, and an Alerts poll runs while a's failure has not
// reached the arbiter yet but the stream has moved past the horizon:
//
//   - stalled-publish: one worker, one batch, Publish blocked on the first
//     prediction while the poll runs;
//   - lagging-worker: two workers, a's worker held before it reports the
//     batch with the failure while b's runs ahead by the in-flight window.
//
// Either way the chain ledger, and the rest of the arbiter, end as in-order
// delivery leaves them: FC2 one true positive, no false one. A poll must not
// settle a's evidence against a clock a's own worker has not reached.
func TestArbiterChainLedgerUnderLag(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	model := xc30Model(t)
	for _, workers := range []int{1, 2} {
		name := map[int]string{1: "stalled-publish", 2: "lagging-worker"}[workers]
		t.Run(name, func(t *testing.T) {
			a, b := "c0-0c0s1n2", "c0-0c0s1n3"
			for i := 0; workerOf(a, workers) == workerOf(b, workers) && workers > 1; i++ {
				b = fmt.Sprintf("c0-0c0s2n%d", i)
			}
			lines := fc2Stream(a, b)
			end := orderBase.Add(239 * 15 * time.Second)

			published := make(chan struct{})
			release := make(chan struct{})
			var once sync.Once
			publish := func(predictor.Output) {}
			if workers == 1 {
				publish = func(predictor.Output) {
					once.Do(func() {
						close(published)
						<-release
					})
				}
			}
			l := newArbiterLocal(model, workers, publish)
			defer closeTestLocal(t, l)
			unblock := sync.OnceFunc(func() { close(release) })
			defer unblock() // before closing the shard, should the test fail early
			arb := l.Arbiter()
			held := make(chan int, 1)
			if workers > 1 {
				l.Manager().SetObserver(func(w int, evs []core.Event) {
					for _, e := range evs {
						if e.Kind == core.EventFailure {
							once.Do(func() {
								held <- w
								<-release
							})
						}
					}
					arb.Observe(w, evs)
				})
			}

			submitted := make(chan struct{})
			go func() {
				defer close(submitted)
				if workers == 1 {
					l.SubmitBatch(lines)
					return
				}
				for i := 0; i < len(lines); i += 32 {
					l.SubmitBatch(lines[i:min(i+32, len(lines))])
				}
			}()
			if workers == 1 {
				<-published
			} else if w := <-held; w != workerOf(a, workers) {
				t.Fatalf("worker %d reported a's failure, a belongs to %d", w, workerOf(a, workers))
			}
			// Wait until the arbiter has heard of the end of the stream (b's
			// last line), then poll.
			deadline := time.Now().Add(10 * time.Second)
			for arb.Status().StreamClock.Before(end) {
				if time.Now().After(deadline) {
					t.Fatalf("stream clock stuck at %v, want %v", arb.Status().StreamClock, end)
				}
				time.Sleep(time.Millisecond)
			}
			_ = arb.Alerts()
			unblock()
			<-submitted
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			st := arb.Status()
			if len(st.Chains) != 1 || st.Chains[0].Chain != "FC2" || st.Chains[0].TP != 1 || st.Chains[0].FP != 0 {
				t.Errorf("chain ledger %+v, want FC2 with one true positive", st.Chains)
			}
			sameArbiter(t, arb, inOrderArbiter(t, model, arb.Config(), lines))
		})
	}
}
