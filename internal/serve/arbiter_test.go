package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/arbiter"
)

// waitArbiter polls /statusz until the arbiter's counters reach the given
// values — the fan-out is asynchronous, so tests must wait for evidence to
// land before reading alerts.
func waitArbiter(t *testing.T, s *Server, heartbeats, predictions, failures uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := s.Status().Arbiter
		if st != nil && st.Heartbeats >= heartbeats && st.Predictions >= predictions && st.Failures >= failures {
			if st.Heartbeats > heartbeats {
				t.Fatalf("arbiter heartbeats = %d, want %d", st.Heartbeats, heartbeats)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("arbiter counters stuck at %+v, want hb=%d pred=%d fail=%d",
				st, heartbeats, predictions, failures)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeAlertsEndpoint is the golden test for the scored-alert NDJSON
// view: a deterministic log with two injected failures yields a ranked,
// reproducible alert list on GET /predictions?mode=alerts, and the
// min_score/limit parameters trim it predictably.
func TestServeAlertsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{
		Overflow: Block,
		Arbiter: &arbiter.Config{
			AlertThreshold: 1e-9, // rank every node; thresholding is tested in the arbiter package
			Horizon:        20 * time.Minute,
		},
	})
	log := genTestLog(t, 9, 2)
	lines := log.Lines()
	ingestAll(t, s, lines)
	waitArbiter(t, s, uint64(len(lines)), 2, 2)

	fetch := func(query string) string {
		t.Helper()
		resp, err := http.Get(s.httpBase() + "/predictions?mode=alerts" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alerts status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("alerts content-type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	body := fetch("")
	// Golden property: the state is settled, so the byte stream is exactly
	// reproducible fetch over fetch.
	if again := fetch(""); again != body {
		t.Fatalf("alert NDJSON not reproducible:\n%s\nvs\n%s", body, again)
	}

	var alerts []arbiter.Alert
	for _, ln := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var al arbiter.Alert
		if err := json.Unmarshal([]byte(ln), &al); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", ln, err)
		}
		alerts = append(alerts, al)
	}
	if len(alerts) != 4 {
		t.Fatalf("alerts = %d, want one per node:\n%s", len(alerts), body)
	}
	for i, al := range alerts {
		if al.Probability < 0 || al.Probability > 1 {
			t.Fatalf("alert %d probability %v outside [0,1]", i, al.Probability)
		}
		if i > 0 && (al.Score > alerts[i-1].Score ||
			(al.Score == alerts[i-1].Score && al.Node < alerts[i-1].Node)) {
			t.Fatalf("ranking violated at %d:\n%s", i, body)
		}
	}
	// The two failed nodes carry failure evidence (flap history at least).
	byNode := map[string]arbiter.Alert{}
	for _, al := range alerts {
		byNode[al.Node] = al
	}
	for _, node := range log.FailedNodes() {
		al, ok := byNode[node]
		if !ok || al.Flaps == 0 {
			t.Fatalf("failed node %s missing failure evidence: %+v", node, al)
		}
	}

	// min_score keeps the stream a prefix; limit caps it.
	cut := fetch(fmt.Sprintf("&min_score=%v", alerts[1].Score))
	if !strings.HasPrefix(body, cut) || strings.Count(cut, "\n") >= len(alerts) {
		t.Fatalf("min_score did not cut the tail:\n%s", cut)
	}
	if one := fetch("&limit=1"); strings.Count(one, "\n") != 1 || !strings.HasPrefix(body, one) {
		t.Fatalf("limit=1 returned:\n%s", one)
	}

	// The statusz arbitration block is live alongside.
	st := s.Status().Arbiter
	if st.Nodes != 4 || len(st.Top) == 0 || len(st.Chains) == 0 {
		t.Fatalf("statusz arbiter block incomplete: %+v", st)
	}
}

// TestServeAlertsDisabled: without Config.Arbiter the mode 404s and the
// statusz block is absent.
func TestServeAlertsDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	resp, err := http.Get(s.httpBase() + "/predictions?mode=alerts")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("alerts on arbiter-less server: status %d, want 404", resp.StatusCode)
	}
	if s.Status().Arbiter != nil {
		t.Fatal("statusz arbiter block present without Config.Arbiter")
	}
}

// arbiterTestConfig is shared by the recovery tests and their reference
// runs: recovery exactness only means anything under identical knobs.
func arbiterTestConfig() *arbiter.Config {
	return &arbiter.Config{AlertThreshold: 1e-9, Horizon: 20 * time.Minute}
}

// arbiterFingerprint captures everything the crash tests compare: the full
// ranked alert list and the status block, as canonical JSON.
func arbiterFingerprint(t *testing.T, s *Server) string {
	t.Helper()
	alerts, err := json.Marshal(s.Alerts())
	if err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(s.Status().Arbiter)
	if err != nil {
		t.Fatal(err)
	}
	return string(alerts) + "\n" + string(st)
}

// referenceArbiterRun processes all lines in order in one uninterrupted
// server and returns its final arbiter fingerprint plus the output counts the
// interrupted run must converge to.
func referenceArbiterRun(t *testing.T, lines []string) (fp string, preds, fails uint64) {
	s := newPersistentServer(t, Config{
		Overflow: Block,
		Arbiter:  arbiterTestConfig(),
	})
	defer shutdownServer(t, s)
	ingestAll(t, s, lines)
	if err := s.router.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Status().Arbiter
	return arbiterFingerprint(t, s), st.Predictions, st.Failures
}

// TestServeArbiterCrashRecovery is the package-level acceptance test: a
// server crash-killed mid-stream (no final snapshot) restores fused alert
// state via WAL replay, finishes the stream, and its post-recovery scores
// match an uninterrupted run exactly — phi windows, flap history, chain
// precision ledger and all.
func TestServeArbiterCrashRecovery(t *testing.T) {
	lines := persistLog(t, 83)
	wantFP, wantPreds, wantFails := referenceArbiterRun(t, lines)
	half := len(lines) / 2

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		// Crash with no snapshot on disk: the whole journal replays into a
		// fresh arbiter.
		{"replay-only", Config{Overflow: Block, Arbiter: arbiterTestConfig()}},
		// Crash with a mid-stream snapshot: the arbiter restores its gob
		// state and replays only the tail.
		{"snapshot+tail", Config{Overflow: Block, Arbiter: arbiterTestConfig(),
			SnapshotInterval: 24 * time.Hour}}, // written manually below
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := tc.cfg
			cfg.DataDir = dir

			s1 := newPersistentServer(t, cfg)
			s1.testSkipFinalSnapshot = true // emulate SIGKILL
			ingestAll(t, s1, lines[:half])
			if cfg.SnapshotInterval > 0 {
				// Snapshot while the arbiter holds live phi windows and
				// pending chain evidence, then keep streaming a little so
				// there is a tail to replay.
				if err := s1.shards[0].Snapshot(); err != nil {
					t.Fatal(err)
				}
				ingestAll(t, s1, lines[half:half+half/2])
			}
			shutdownServer(t, s1)

			s2 := newPersistentServer(t, cfg)
			defer shutdownServer(t, s2)
			if !s2.Status().Recovery.Performed {
				t.Fatal("no recovery performed")
			}
			rest := lines[half:]
			if cfg.SnapshotInterval > 0 {
				rest = lines[half+half/2:]
			}
			ingestAll(t, s2, rest)
			if err := s2.router.Flush(); err != nil {
				t.Fatal(err)
			}

			if st := s2.Status().Arbiter; st.Heartbeats != uint64(len(lines)) || st.Predictions != wantPreds || st.Failures != wantFails {
				t.Fatalf("recovered run at %+v, want hb=%d pred=%d fail=%d", st, len(lines), wantPreds, wantFails)
			}
			if got := arbiterFingerprint(t, s2); got != wantFP {
				t.Fatalf("post-recovery arbiter state diverges from the uninterrupted run:\n got  %s\n want %s", got, wantFP)
			}
		})
	}
}
