package aarohi_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"testing"
)

// buildTestCmd compiles ./cmd/<name> into dir, reusing the go build cache so
// repeated builds across tests are cheap.
func buildTestCmd(t *testing.T, dir, name string, extra ...string) string {
	t.Helper()
	out := filepath.Join(dir, name)
	args := append([]string{"build"}, extra...)
	args = append(args, "-o", out, "./cmd/"+name)
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, msg)
	}
	return out
}

// genSwapCorpus runs loggen for a labeled corpus plus the model files and
// returns the log lines.
func genSwapCorpus(t *testing.T, loggenBin, dir string, seed int) (lines []string, chains, templates string) {
	t.Helper()
	templates = filepath.Join(dir, "templates.json")
	chains = filepath.Join(dir, "chains.json")
	refLog := filepath.Join(dir, "ref.log")
	run(t, loggenBin, "-dialect", "xc30", "-nodes", "8", "-duration", "2h",
		"-failures", "5", "-seed", fmt.Sprint(seed), "-out", refLog,
		"-templates", templates, "-chains", chains)
	raw, err := os.ReadFile(refLog)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n"), chains, templates
}

// variantUploadBody assembles a POST /model document from the exported model
// files with the ΔT default (4m) spelled out explicitly: a distinct model
// fingerprint over the same parse automaton, so hot-swapping to it migrates
// every in-flight parse and changes nothing about prediction behavior.
func variantUploadBody(t *testing.T, chainsPath, tplPath string, activate, shadow bool) []byte {
	t.Helper()
	chainsRaw, err := os.ReadFile(chainsPath)
	if err != nil {
		t.Fatal(err)
	}
	tplRaw, err := os.ReadFile(tplPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"chains":%s,"templates":%s,"options":{"Timeout":%d},"activate":%v,"shadow":%v}`,
		chainsRaw, tplRaw, int64(4*time.Minute), activate, shadow)
	return []byte(doc)
}

// postJSONStatus POSTs body and returns the status code and response bytes.
func postJSONStatus(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// uploadResult mirrors the POST /model and /model/rollback response fields
// the harness checks.
type uploadResult struct {
	Model struct {
		Fingerprint      string `json:"fingerprint"`
		RulesFingerprint string `json:"rules_fingerprint"`
	} `json:"model"`
	Swap *struct {
		From         string  `json:"from"`
		To           string  `json:"to"`
		Trigger      string  `json:"trigger"`
		StateCarried bool    `json:"state_carried"`
		PauseSeconds float64 `json:"pause_seconds"`
	} `json:"swap"`
}

// attributedPred is one prediction with its model attribution.
type attributedPred struct {
	key   string
	model string
}

// collectAttributed drains /predictions and returns every prediction with
// the model fingerprint that produced it, preserving delivery order.
func collectAttributed(t *testing.T, httpAddr string) func() []attributedPred {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/predictions?replay=recovered")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("/predictions status %d", resp.StatusCode)
	}
	done := make(chan []attributedPred, 1)
	orderErr := make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		var preds []attributedPred
		lastMatched := map[string]time.Time{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			var out struct {
				Prediction *struct {
					Node      string
					ChainName string
					FirstAt   time.Time
					MatchedAt time.Time
					Length    int
				}
				Model string `json:"model"`
			}
			if err := json.Unmarshal(sc.Bytes(), &out); err != nil {
				break
			}
			if p := out.Prediction; p != nil {
				if prev, ok := lastMatched[p.Node]; ok && p.MatchedAt.Before(prev) {
					select {
					case orderErr <- fmt.Errorf("node %s: prediction at %v delivered after %v (reordered across swap)",
						p.Node, p.MatchedAt, prev):
					default:
					}
				}
				lastMatched[p.Node] = p.MatchedAt
				preds = append(preds, attributedPred{
					key: fmt.Sprintf("%s/%s/%d/%d/%d",
						p.Node, p.ChainName, p.FirstAt.UnixNano(), p.MatchedAt.UnixNano(), p.Length),
					model: out.Model,
				})
			}
		}
		done <- preds
	}()
	return func() []attributedPred {
		preds := <-done
		select {
		case err := <-orderErr:
			t.Error(err)
		default:
		}
		return preds
	}
}

// finalStats parses the daemon's post-drain stats report from stdout.
func finalStats(t *testing.T, d *daemonProc) daemonStatus {
	t.Helper()
	out := d.stdout.String()
	_, jsonPart, ok := strings.Cut(out, "--- final stats ---")
	if !ok {
		t.Fatalf("no final stats in daemon stdout:\n%s", out)
	}
	var st daemonStatus
	if err := json.Unmarshal([]byte(jsonPart), &st); err != nil {
		t.Fatalf("decoding final stats: %v\n%s", err, jsonPart)
	}
	return st
}

// TestAarohidModelSwapE2E exercises the model lifecycle against the real
// daemon binary: a variant model is POSTed and activated mid-stream under
// load, and the run must lose no accepted line, attribute post-swap
// predictions to the new fingerprint, and produce exactly the prediction set
// of an uninterrupted single-model run; a rollback then restores the boot
// model as the active version.
func TestAarohidModelSwapE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries, streams corpora")
	}
	dir := t.TempDir()
	loggenBin := buildTestCmd(t, dir, "loggen")
	aarohidBin := buildTestCmd(t, dir, "aarohid", testBuildRaceFlag()...)
	lines, chains, templates := genSwapCorpus(t, loggenBin, dir, 99)
	t.Logf("corpus: %d lines", len(lines))

	modelArgs := []string{"-chains", chains, "-templates", templates,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-grace", "30s"}

	// Uninterrupted reference run: one model for the whole corpus.
	var refKeys []string
	{
		d := startAarohid(t, aarohidBin, modelArgs...)
		col := subscribePredictions(t, d.httpAddr)
		streamLines(t, d.tcpAddr, lines)
		d.sigterm(t)
		refKeys = col.wait()
		if len(refKeys) == 0 {
			t.Fatal("reference run produced no predictions")
		}
		sort.Strings(refKeys)
	}

	d := startAarohid(t, aarohidBin, modelArgs...)
	st := statusz(t, d.httpAddr)
	if st.Model == nil || len(st.Model.Active) != 16 {
		t.Fatalf("statusz model block = %+v, want an active fingerprint", st.Model)
	}
	fpA := st.Model.Active

	collect := collectAttributed(t, d.httpAddr)
	half := len(lines) / 2
	streamLines(t, d.tcpAddr, lines[:half])

	// Hot-swap mid-stream: upload + activate the variant model.
	code, body := postJSONStatus(t, "http://"+d.httpAddr+"/model",
		variantUploadBody(t, chains, templates, true, false))
	if code != http.StatusCreated {
		t.Fatalf("POST /model: status %d: %s", code, body)
	}
	var up uploadResult
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatalf("decoding upload result: %v\n%s", err, body)
	}
	fpB := up.Model.Fingerprint
	if fpB == fpA || len(fpB) != 16 {
		t.Fatalf("variant fingerprint %q not distinct from boot model %q", fpB, fpA)
	}
	if up.Swap == nil || !up.Swap.StateCarried || up.Swap.From != fpA || up.Swap.To != fpB {
		t.Fatalf("upload swap report %+v, want state-carried %s -> %s", up.Swap, fpA, fpB)
	}
	t.Logf("hot-swap %s -> %s paused ingest %.6fs", fpA, fpB, up.Swap.PauseSeconds)

	streamLines(t, d.tcpAddr, lines[half:])

	// Roll back: the boot model must become active again. No further lines
	// are streamed, so attribution stays monotonic A then B.
	code, body = postJSONStatus(t, "http://"+d.httpAddr+"/model/rollback", nil)
	if code != http.StatusOK {
		t.Fatalf("POST /model/rollback: status %d: %s", code, body)
	}
	var rb struct {
		To      string `json:"to"`
		Trigger string `json:"trigger"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.To != fpA || rb.Trigger != "rollback" {
		t.Fatalf("rollback swap report %+v, want rollback to %s", rb, fpA)
	}
	if st := statusz(t, d.httpAddr); st.Model == nil || st.Model.Active != fpA {
		t.Fatalf("after rollback active = %+v, want %s", st.Model, fpA)
	}

	d.sigterm(t)
	preds := collect()

	// Zero accepted-line loss across both swaps, by the daemon's own books.
	fin := finalStats(t, d)
	if fin.LinesAccepted != int64(len(lines)) || fin.Manager.LinesScanned != len(lines) {
		t.Errorf("accepted=%d scanned=%d, want %d of both (lines lost across swap)",
			fin.LinesAccepted, fin.Manager.LinesScanned, len(lines))
	}
	if fin.Model == nil || fin.Model.Active != fpA || fin.Model.Swaps != 2 || fin.Model.Versions != 2 {
		t.Errorf("final model status %+v, want active=%s swaps=2 versions=2", fin.Model, fpA)
	}

	// The swapped run predicts exactly what the uninterrupted run did, and
	// attribution is monotonic: once the swap lands no prediction names the
	// old model.
	keys := make([]string, 0, len(preds))
	seenB := false
	for _, p := range preds {
		keys = append(keys, p.key)
		switch p.model {
		case fpB:
			seenB = true
		case fpA:
			if seenB {
				t.Errorf("prediction %s attributed to %s after the swap to %s", p.key, fpA, fpB)
			}
		default:
			t.Errorf("prediction %s attributed to unknown model %q", p.key, p.model)
		}
	}
	sort.Strings(keys)
	if strings.Join(keys, "\n") != strings.Join(refKeys, "\n") {
		t.Fatalf("swapped run predictions diverge from reference:\n got %d: %v\nwant %d: %v",
			len(keys), keys, len(refKeys), refKeys)
	}
}

// TestAarohidCrashDuringSwap extends the kill-and-restart harness with model
// hot-swaps racing the kills: activations alternate between two behaviorally
// identical models while the corpus streams and SIGKILL lands at random
// offsets. After every crash the daemon must boot with one of the two models
// active, replay the journal (epoch records included) cleanly, and the union
// of predictions must still exactly match an uninterrupted run's.
func TestAarohidCrashDuringSwap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries, kills processes")
	}
	dir := t.TempDir()
	loggenBin := buildTestCmd(t, dir, "loggen")
	aarohidBin := buildTestCmd(t, dir, "aarohid", testBuildRaceFlag()...)
	lines, chains, templates := genSwapCorpus(t, loggenBin, dir, 55)
	t.Logf("corpus: %d lines", len(lines))

	modelArgs := []string{"-chains", chains, "-templates", templates,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-grace", "30s"}

	var refKeys []string
	{
		d := startAarohid(t, aarohidBin, modelArgs...)
		col := subscribePredictions(t, d.httpAddr)
		streamLines(t, d.tcpAddr, lines)
		d.sigterm(t)
		refKeys = col.wait()
		if len(refKeys) == 0 {
			t.Fatal("reference run produced no predictions")
		}
		sort.Strings(refKeys)
	}

	dataDir := filepath.Join(dir, "data")
	durArgs := append([]string{"-data-dir", dataDir, "-fsync", "always", "-snapshot-interval", "0"}, modelArgs...)
	rng := rand.New(rand.NewSource(13))
	union := map[string]bool{}
	pos := 0
	var fpA, fpB string
	const kills = 8
	for iter := 0; iter < kills; iter++ {
		d := startAarohid(t, aarohidBin, durArgs...)
		st := statusz(t, d.httpAddr)
		if st.Model == nil {
			t.Fatalf("iteration %d: no model block in statusz", iter)
		}
		if iter == 0 {
			fpA = st.Model.Active
			// Admit the variant once; the registry persists it across crashes.
			code, body := postJSONStatus(t, "http://"+d.httpAddr+"/model",
				variantUploadBody(t, chains, templates, false, false))
			if code != http.StatusCreated {
				t.Fatalf("POST /model: status %d: %s", code, body)
			}
			var up uploadResult
			if err := json.Unmarshal(body, &up); err != nil {
				t.Fatal(err)
			}
			fpB = up.Model.Fingerprint
		} else {
			if st.Model.Active != fpA && st.Model.Active != fpB {
				t.Fatalf("iteration %d: recovered active model %s, want %s or %s",
					iter, st.Model.Active, fpA, fpB)
			}
			if st.Model.Versions != 2 {
				t.Fatalf("iteration %d: registry has %d versions, want 2", iter, st.Model.Versions)
			}
			// A kill can land while a swap holds the ingest pause with the
			// journal still empty — then there is legitimately nothing to
			// recover. Any durable record, though, must force a replay.
			if st.Recovery == nil {
				t.Fatalf("iteration %d: no recovery block after kill", iter)
			}
			if st.WAL == nil {
				t.Fatalf("iteration %d: no wal block in statusz", iter)
			}
			if !st.Recovery.Performed && st.WAL.LastIndex > 0 {
				t.Fatalf("iteration %d: journal holds %d records but boot performed no recovery",
					iter, st.WAL.LastIndex)
			}
		}
		// The journal holds epoch records too, so the durable line count is
		// the manager's replayed total, not the WAL index.
		durable := st.Manager.LinesScanned
		if durable > pos {
			t.Fatalf("iteration %d: recovered %d lines but only %d were ever sent", iter, durable, pos)
		}
		pos = durable

		col := subscribePredictions(t, d.httpAddr)
		remaining := len(lines) - pos
		chunk := 0
		if remaining > kills-iter {
			chunk = min(1+rng.Intn(remaining/(kills-iter)+1), remaining)
		}
		swapsDone := make(chan struct{})
		targets := []string{fpB, fpA, fpB}
		// Drawn here: rng is not safe for use from the swap goroutine too.
		var pauses [3]time.Duration
		for i := range pauses {
			pauses[i] = time.Duration(rng.Intn(20)) * time.Millisecond
		}
		go func() {
			defer close(swapsDone)
			cl := &http.Client{Timeout: 2 * time.Second}
			for i, fp := range targets {
				// Races the kill by design: errors and refused swaps are fine,
				// the journal decides which activations became durable.
				body := fmt.Sprintf(`{"fingerprint":%q}`, fp)
				resp, err := cl.Post("http://"+d.httpAddr+"/model/activate", "application/json",
					strings.NewReader(body))
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(pauses[i])
			}
		}()
		if chunk > 0 {
			streamLines(t, d.tcpAddr, lines[pos:pos+chunk])
			pos += chunk
		}
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
		d.sigkill(t)
		<-swapsDone
		for _, k := range col.wait() {
			union[k] = true
		}
	}

	// Final graceful run: resume from the durable offset, stream the tail,
	// drain (writing the snapshot under whichever model ended up active).
	d := startAarohid(t, aarohidBin, durArgs...)
	st := statusz(t, d.httpAddr)
	if st.Manager.LinesScanned > pos {
		t.Fatalf("final boot recovered %d lines, only %d sent", st.Manager.LinesScanned, pos)
	}
	pos = st.Manager.LinesScanned
	col := subscribePredictions(t, d.httpAddr)
	streamLines(t, d.tcpAddr, lines[pos:])
	d.sigterm(t)
	for _, k := range col.wait() {
		union[k] = true
	}
	fin := finalStats(t, d)
	if fin.Model == nil {
		t.Fatal("final stats carry no model block")
	}
	activeAtDrain := fin.Model.Active

	got := make([]string, 0, len(union))
	for k := range union {
		got = append(got, k)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(refKeys, "\n") {
		t.Fatalf("union of predictions across %d crash+swap runs diverges:\n got %d: %v\nwant %d: %v",
			kills, len(got), got, len(refKeys), refKeys)
	}

	// Post-drain boot: recovery must come from the snapshot — which was taken
	// under activeAtDrain, not necessarily the boot flags' model — with zero
	// replayed records, and the daemon must keep that model active.
	d = startAarohid(t, aarohidBin, durArgs...)
	st = statusz(t, d.httpAddr)
	if st.Recovery == nil || !st.Recovery.Performed || st.Recovery.ReplayedRecords != 0 {
		t.Errorf("post-drain boot recovery = %+v, want snapshot-only", st.Recovery)
	}
	if st.Model == nil || st.Model.Active != activeAtDrain {
		t.Errorf("post-drain boot active model %+v, want %s", st.Model, activeAtDrain)
	}
	if st.Manager.LinesScanned != len(lines) {
		t.Errorf("post-drain boot scanned %d lines, want %d", st.Manager.LinesScanned, len(lines))
	}
	d.sigterm(t)
}

// TestAarohidReloadSighupAndWatch drives the file-based reload paths: a
// SIGHUP with unchanged model files is a no-op (content-addressed admission
// finds the version already stored), and rewriting the chains file under
// -watch hot-swaps to the new model without a restart.
func TestAarohidReloadSighupAndWatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	loggenBin := buildTestCmd(t, dir, "loggen")
	aarohidBin := buildTestCmd(t, dir, "aarohid", testBuildRaceFlag()...)
	_, chains, templates := genSwapCorpus(t, loggenBin, dir, 7)

	// The daemon watches a private copy so the test can rewrite it.
	liveChains := filepath.Join(dir, "live-chains.json")
	raw, err := os.ReadFile(chains)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(liveChains, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d := startAarohid(t, aarohidBin, "-chains", liveChains, "-templates", templates,
		"-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-grace", "30s", "-watch", "100ms")
	st := statusz(t, d.httpAddr)
	if st.Model == nil {
		t.Fatal("no model block in statusz")
	}
	fpA := st.Model.Active

	// SIGHUP with unchanged files: same fingerprint, nothing swaps.
	if err := d.cmd.Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	st = statusz(t, d.httpAddr)
	if st.Model.Active != fpA || st.Model.Versions != 1 || st.Model.Swaps != 0 {
		t.Fatalf("no-op SIGHUP changed model state: %+v", st.Model)
	}

	// Rewrite the chains file with the last chain removed; -watch must pick
	// it up, vet it, and hot-swap.
	var chainDocs []json.RawMessage
	if err := json.Unmarshal(raw, &chainDocs); err != nil {
		t.Fatal(err)
	}
	if len(chainDocs) < 2 {
		t.Fatalf("corpus model has %d chains, need at least 2", len(chainDocs))
	}
	pruned, err := json.Marshal(chainDocs[:len(chainDocs)-1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(liveChains, pruned, 0o644); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st = statusz(t, d.httpAddr)
		if st.Model.Active != fpA {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("-watch never swapped away from %s: %+v", fpA, st.Model)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if st.Model.Versions != 2 || st.Model.Swaps != 1 {
		t.Errorf("after watch reload: %+v, want 2 versions and 1 swap", st.Model)
	}
	d.sigterm(t)
}

// TestAarohidFlagValidation checks that unknown -overflow and -fsync values
// (and other malformed flags) are rejected with a usage message and exit
// status 2 before the daemon touches any input file.
func TestAarohidFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	aarohidBin := buildTestCmd(t, dir, "aarohid")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing model", nil, "-chains and -templates are required"},
		{"bad overflow", []string{"-chains", "x", "-templates", "y", "-overflow", "spill"},
			`-overflow must be block or shed, not "spill"`},
		{"bad fsync", []string{"-chains", "x", "-templates", "y", "-fsync", "sometimes"},
			`-fsync must be always, batch or off, not "sometimes"`},
		{"negative watch", []string{"-chains", "x", "-templates", "y", "-watch", "-1s"},
			"-watch must be a non-negative duration"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(aarohidBin, tc.args...)
			out, err := cmd.CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output missing %q:\n%s", tc.want, out)
			}
			// The usage text must follow the error, naming the flags.
			for _, flagName := range []string{"-overflow", "-fsync", "-chains"} {
				if !strings.Contains(string(out), flagName) {
					t.Errorf("usage text missing %s:\n%s", flagName, out)
				}
			}
		})
	}
}

// TestLoggenStreamReconnect starts `loggen -stream` against a port with no
// listener: the sender must retry with backoff, then deliver the entire
// corpus once the daemon comes up, and give up with a non-zero exit when the
// retry budget is exhausted.
func TestLoggenStreamReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries, streams corpora")
	}
	dir := t.TempDir()
	loggenBin := buildTestCmd(t, dir, "loggen")
	aarohidBin := buildTestCmd(t, dir, "aarohid", testBuildRaceFlag()...)
	lines, chains, templates := genSwapCorpus(t, loggenBin, dir, 21)

	// Reserve a port, release it, and point loggen at it before any listener
	// exists — the first dials are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr := l.Addr().String()
	l.Close()

	loggenCmd := exec.Command(loggenBin, "-dialect", "xc30", "-nodes", "8",
		"-duration", "2h", "-failures", "5", "-seed", "21",
		"-stream", tcpAddr, "-retries", "20", "-retry-backoff", "100ms")
	var loggenOut bytes.Buffer
	loggenCmd.Stdout = &loggenOut
	loggenCmd.Stderr = &loggenOut
	if err := loggenCmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loggenCmd.Process.Kill() })

	// Let a few refused dials happen, then bring the daemon up on that port.
	time.Sleep(300 * time.Millisecond)
	d := startAarohid(t, aarohidBin, "-chains", chains, "-templates", templates,
		"-tcp", tcpAddr, "-http", "127.0.0.1:0", "-grace", "30s")
	if err := loggenCmd.Wait(); err != nil {
		t.Fatalf("loggen exit: %v\n%s", err, loggenOut.String())
	}
	if !strings.Contains(loggenOut.String(), "retry") {
		t.Errorf("loggen reconnect left no retry trace:\n%s", loggenOut.String())
	}
	st := statusz(t, d.httpAddr)
	if st.LinesAccepted != int64(len(lines)) {
		t.Errorf("daemon accepted %d lines, want %d", st.LinesAccepted, len(lines))
	}
	d.sigterm(t)

	// Exhausted budget: no listener ever appears, loggen must fail fast.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := l2.Addr().String()
	l2.Close()
	fail := exec.Command(loggenBin, "-dialect", "xc30", "-nodes", "2",
		"-duration", "10m", "-failures", "1", "-seed", "3",
		"-stream", deadAddr, "-retries", "2", "-retry-backoff", "10ms")
	out, err := fail.CombinedOutput()
	if err == nil {
		t.Fatalf("loggen succeeded against a dead address:\n%s", out)
	}
	if !strings.Contains(string(out), "gave up after 2 consecutive failures") {
		t.Errorf("exhausted-budget message missing:\n%s", out)
	}
}
