package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/wal"
)

// newModelTestServer boots a Server over the XC30 dialect.
func newModelTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	mgr, err := predictor.NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), predictor.Options{}, 2)
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

// variantModel is the XC30 model with the default ΔT written explicitly: a
// distinct fingerprint (new version) over the identical automaton and
// identical runtime behavior — the controlled subject for swap tests.
func variantModel() ModelUpload {
	return ModelUpload{
		Chains:    loggen.DialectXC30.Chains(),
		Templates: loggen.DialectXC30.Inventory(),
		Options:   predictor.Options{Timeout: 4 * time.Minute},
	}
}

// prunedModel drops the last failure chain — a different compiled automaton,
// so swapping to it exercises the reset tier.
func prunedModel() ModelUpload {
	chains := loggen.DialectXC30.Chains()
	return ModelUpload{
		Chains:    chains[:len(chains)-1],
		Templates: loggen.DialectXC30.Inventory(),
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

// TestModelHotSwapZeroLoss streams a log in two segments with an activation
// swap between them: no accepted line is lost across the swap, the in-flight
// parse state carries (identical automaton), every prediction still fires,
// and attribution transitions monotonically from the old fingerprint to the
// new one.
func TestModelHotSwapZeroLoss(t *testing.T) {
	s := newModelTestServer(t, Config{Overflow: Block, QueueSize: 64})
	lines := genTestLog(t, 5, 3).Lines()
	k := len(lines) * 2 / 5
	fpA := s.shards[0].Manager().FingerprintHex()

	cl := &Client{Base: s.httpBase()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outs, errc, err := cl.Predictions(ctx)
	if err != nil {
		t.Fatal(err)
	}

	streamLines(t, s, lines[:k])

	up := variantModel()
	up.Activate = true
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusCreated {
		t.Fatalf("POST /model = %d: %s", code, body)
	}
	var res ModelUploadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Swap == nil {
		t.Fatal("activation upload returned no swap report")
	}
	if !res.Swap.StateCarried || res.Swap.From != fpA || res.Swap.To != res.Model.Fingerprint {
		t.Fatalf("swap report %+v", res.Swap)
	}
	fpB := res.Model.Fingerprint

	streamLines(t, s, lines[k:])

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	var preds []predictor.Output
	for out := range outs {
		if out.Prediction != nil {
			preds = append(preds, out)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("got %d predictions across the swap, want 3", len(preds))
	}
	// Attribution is monotonic: once the new fingerprint appears, the old one
	// never does again.
	sawB := false
	for _, out := range preds {
		switch out.Model {
		case fpB:
			sawB = true
		case fpA:
			if sawB {
				t.Fatalf("old-model prediction after new-model prediction: %+v", preds)
			}
		default:
			t.Fatalf("prediction attributed to unknown model %q", out.Model)
		}
	}
	if !sawB {
		t.Error("no prediction attributed to the new model")
	}

	st := s.Status()
	if st.LinesAccepted != int64(len(lines)) || st.LinesDropped != 0 {
		t.Fatalf("accepted %d dropped %d, want %d/0", st.LinesAccepted, st.LinesDropped, len(lines))
	}
	if st.Manager.LinesScanned != len(lines) {
		t.Fatalf("manager scanned %d lines across the swap, want %d", st.Manager.LinesScanned, len(lines))
	}
	if st.Model == nil || st.Model.Active != fpB || st.Model.Swaps != 1 {
		t.Fatalf("model status %+v", st.Model)
	}
}

// TestModelSwapsUnderConcurrentLoad hammers the swap path while a stream is
// in flight: repeated activations between two behavior-identical versions
// must lose no accepted line and no prediction, whatever the interleaving.
func TestModelSwapsUnderConcurrentLoad(t *testing.T) {
	s := newModelTestServer(t, Config{Overflow: Block, QueueSize: 64})
	lines := genTestLog(t, 11, 4).Lines()
	fpA := s.shards[0].Manager().FingerprintHex()

	up := variantModel()
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusCreated {
		t.Fatalf("POST /model = %d: %s", code, body)
	}
	var res ModelUploadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	fpB := res.Model.Fingerprint

	sub := s.Subscribe(1024)
	streamDone := make(chan error, 1)
	go func() {
		conn, err := DialLines(s.TCPAddr().String())
		if err != nil {
			streamDone <- err
			return
		}
		for _, line := range lines {
			if err := conn.Send(line); err != nil {
				streamDone <- err
				return
			}
		}
		streamDone <- conn.Close()
	}()

	for i := 0; i < 6; i++ {
		fp := fpB
		if i%2 == 1 {
			fp = fpA
		}
		if sw, err := s.ActivateModel(fp); err != nil {
			t.Fatal(err)
		} else if !sw.StateCarried {
			t.Fatalf("swap %d did not carry state: %+v", i, sw)
		}
	}
	if err := <-streamDone; err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	preds := 0
	for out := range sub.Out() {
		if out.Prediction != nil {
			preds++
		}
	}
	if preds != 4 {
		t.Fatalf("got %d predictions across 6 swaps, want 4", preds)
	}
	st := s.Status()
	if st.Manager.LinesScanned != len(lines) || st.LinesDropped != 0 {
		t.Fatalf("scanned %d dropped %d, want %d/0", st.Manager.LinesScanned, st.LinesDropped, len(lines))
	}
	if st.Model.Swaps != 6 || st.Model.Active != fpA {
		t.Fatalf("model status %+v", st.Model)
	}
}

// TestModelRollback swaps to a different automaton (reset tier) and rolls
// back, restoring the prior version as active.
func TestModelRollback(t *testing.T) {
	s := newModelTestServer(t, Config{})
	fpA := s.shards[0].Manager().FingerprintHex()

	up := prunedModel()
	up.Activate = true
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusCreated {
		t.Fatalf("POST /model = %d: %s", code, body)
	}
	var res ModelUploadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Swap.StateCarried {
		t.Fatalf("pruned automaton carried state: %+v", res.Swap)
	}
	if got := s.shards[0].Manager().FingerprintHex(); got != res.Model.Fingerprint {
		t.Fatalf("active manager %s, want %s", got, res.Model.Fingerprint)
	}

	code, body = postJSON(t, s.httpBase()+"/model/rollback", struct{}{})
	if code != http.StatusOK {
		t.Fatalf("POST /model/rollback = %d: %s", code, body)
	}
	var sw SwapReport
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.To != fpA || sw.Trigger != "rollback" {
		t.Fatalf("rollback report %+v", sw)
	}
	if got := s.shards[0].Manager().FingerprintHex(); got != fpA {
		t.Fatalf("active manager after rollback %s, want %s", got, fpA)
	}
	// History exhausted: a second rollback is refused.
	if code, _ = postJSON(t, s.httpBase()+"/model/rollback", struct{}{}); code != http.StatusConflict {
		t.Fatalf("second rollback = %d, want 409", code)
	}
}

// TestShadowEvaluationAndPromote runs a behavior-identical candidate in
// shadow over a full log (perfect agreement expected), then promotes it warm.
func TestShadowEvaluationAndPromote(t *testing.T) {
	s := newModelTestServer(t, Config{Overflow: Block, QueueSize: 64})
	lines := genTestLog(t, 7, 2).Lines()

	up := variantModel()
	up.Shadow = true
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusCreated {
		t.Fatalf("POST /model = %d: %s", code, body)
	}
	var res ModelUploadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Shadow == nil || !res.Shadow.StateCarried {
		t.Fatalf("shadow status %+v", res.Shadow)
	}
	fpB := res.Model.Fingerprint

	streamLines(t, s, lines)
	// Barriers: primary outputs through the tracker, shadow outputs through
	// its consumer.
	if err := s.shards[0].Manager().Flush(); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0].ShadowManager()
	if sh == nil {
		t.Fatal("shadow disappeared")
	}
	if err := sh.Flush(); err != nil {
		t.Fatal(err)
	}

	st := s.Status()
	if st.Shadow == nil {
		t.Fatal("no shadow block in status")
	}
	if st.Shadow.PrimaryPredictions != 2 || st.Shadow.ShadowPredictions != 2 || st.Shadow.Agreed != 2 {
		t.Fatalf("agreement %+v, want 2/2/2", st.Shadow)
	}
	if st.Shadow.PendingPrimary != 0 || st.Shadow.PendingShadow != 0 {
		t.Fatalf("pending disagreements: %+v", st.Shadow)
	}
	if st.Shadow.Manager.LinesScanned != len(lines) {
		t.Fatalf("shadow scanned %d lines, want %d", st.Shadow.Manager.LinesScanned, len(lines))
	}

	// Promote: the shadow manager takes over warm.
	code, body = postJSON(t, s.httpBase()+"/model/activate", map[string]string{"fingerprint": fpB})
	if code != http.StatusOK {
		t.Fatalf("POST /model/activate = %d: %s", code, body)
	}
	var sw SwapReport
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if !sw.Promoted || !sw.StateCarried || sw.Trigger != "promote" {
		t.Fatalf("promotion report %+v", sw)
	}
	if got := s.shards[0].Manager().FingerprintHex(); got != fpB {
		t.Fatalf("active manager %s, want promoted %s", got, fpB)
	}
	st = s.Status()
	if st.Shadow != nil {
		t.Fatal("shadow still reported after promotion")
	}
	if st.Manager.LinesScanned != len(lines) {
		t.Fatalf("promoted manager scanned %d, want %d", st.Manager.LinesScanned, len(lines))
	}
	// The shadow is gone; stopping it now is refused.
	req, _ := http.NewRequest(http.MethodDelete, s.httpBase()+"/model/shadow", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE /model/shadow after promote = %d, want 409", resp.StatusCode)
	}
}

// TestModelUploadVetRejected posts a model with a chain phrase missing from
// the inventory: 422 with the vet report attached, and the version is not
// stored.
func TestModelUploadVetRejected(t *testing.T) {
	s := newModelTestServer(t, Config{TCPAddr: "off"})
	up := variantModel()
	up.Chains = append(up.Chains, core.FailureChain{
		Name:    "phantom",
		Phrases: []core.PhraseID{9999, 9998},
	})
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("POST /model with bad chain = %d: %s", code, body)
	}
	var rej struct {
		Error string          `json:"error"`
		Vet   json.RawMessage `json:"vet"`
	}
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Error == "" || len(rej.Vet) == 0 {
		t.Fatalf("rejection body %s", body)
	}
	if got := len(s.Registry().List()); got != 1 {
		t.Fatalf("registry holds %d versions after rejection, want 1 (boot model)", got)
	}
}

// TestModelEpochRecovery restarts a persisted server whose journal holds a
// mid-stream swap: replay rebuilds the swapped-to model (each segment
// replayed under the model that wrote it) and the manifest names it active,
// even though the new process booted with the original flags model.
func TestModelEpochRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Overflow: Block, DataDir: dir}
	s := newModelTestServer(t, cfg)
	lines := genTestLog(t, 9, 2).Lines()
	k := len(lines) / 2
	fpA := s.shards[0].Manager().FingerprintHex()

	streamLines(t, s, lines[:k])
	up := variantModel()
	up.Activate = true
	code, body := postJSON(t, s.httpBase()+"/model", up)
	if code != http.StatusCreated {
		t.Fatalf("POST /model = %d: %s", code, body)
	}
	var res ModelUploadResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	fpB := res.Model.Fingerprint
	if res.Swap.WALEpochIndex == 0 {
		t.Fatalf("swap wrote no WAL epoch: %+v", res.Swap)
	}
	streamLines(t, s, lines[k:])

	// Crash (no final snapshot): the whole journal replays on next boot.
	s.testSkipFinalSnapshot = true
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	s2 := newModelTestServer(t, cfg)
	st := s2.Status()
	if st.Model == nil || st.Model.Active != fpB {
		t.Fatalf("recovered active model %+v, want %s", st.Model, fpB)
	}
	if got := s2.shards[0].Manager().FingerprintHex(); got != fpB {
		t.Fatalf("recovered manager runs %s, want %s", got, fpB)
	}
	if st.Recovery == nil || st.Recovery.ReplayedSwaps != 1 {
		t.Fatalf("recovery %+v, want 1 replayed swap", st.Recovery)
	}
	// All lines replayed (the epoch record is not a line).
	if st.Manager.LinesScanned != len(lines) {
		t.Fatalf("recovered manager scanned %d lines, want %d", st.Manager.LinesScanned, len(lines))
	}
	if got := fmt.Sprint(st.Recovery.ReplayedRecords); got != fmt.Sprint(len(lines)+1) {
		t.Fatalf("replayed %s records, want %d lines + 1 epoch", got, len(lines)+1)
	}
	if base := s2.Registry().Base(); base != fpA {
		t.Fatalf("manifest base %s, want %s", base, fpA)
	}
}

// TestModelCompiledOncePerVersion: every shard's managers run one compiled
// form per model version — the boot compile, the registry's admission, a
// hot-swap, a shadow start, a replayed epoch record and a rollback all hand
// the same pointer to every shard instead of compiling per shard × worker.
func TestModelCompiledOncePerVersion(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Overflow: Block, DataDir: dir, Shards: 2}
	s := newModelTestServer(t, cfg)
	compiled := func(s *Server, fp string) *predictor.Model {
		t.Helper()
		m, err := s.Registry().Compiled(fp)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	onModel := func(s *Server, want *predictor.Model, what string) {
		t.Helper()
		for i, sh := range s.shards {
			if got := sh.Manager().Model(); got != want {
				t.Fatalf("%s: shard %d runs compiled model %p, want the shared %p", what, i, got, want)
			}
		}
	}
	upload := func(s *Server, up ModelUpload) string {
		t.Helper()
		code, body := postJSON(t, s.httpBase()+"/model", up)
		if code != http.StatusCreated {
			t.Fatalf("POST /model = %d: %s", code, body)
		}
		var res ModelUploadResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		return res.Model.Fingerprint
	}

	boot := s.shards[0].Manager().Model()
	fpA := boot.FingerprintHex()
	onModel(s, boot, "boot")
	if compiled(s, fpA) != boot {
		t.Fatal("registry admitted the boot model with a compile of its own")
	}

	lines := genTestLog(t, 9, 2).Lines()
	k := len(lines) / 2
	ingestAll(t, s, lines[:k])
	up := variantModel()
	up.Activate = true
	fpB := upload(s, up)
	onModel(s, compiled(s, fpB), "hot-swap")

	up = prunedModel()
	up.Shadow = true
	fpC := upload(s, up)
	for i, sh := range s.shards {
		if got := sh.ShadowManager().Model(); got != compiled(s, fpC) {
			t.Fatalf("shadow: shard %d runs compiled model %p, want the shared %p", i, got, compiled(s, fpC))
		}
	}
	ingestAll(t, s, lines[k:])

	// Crash: each shard's journal replays the epoch record into version B.
	s.testSkipFinalSnapshot = true
	shutdownServer(t, s)
	s2 := newModelTestServer(t, cfg)
	for i, sh := range s2.shards {
		if rec := sh.Stats().Recovery; rec == nil || rec.ReplayedSwaps != 1 {
			t.Fatalf("shard %d recovery %+v, want 1 replayed swap", i, rec)
		}
	}
	// The top-level block is the shards' sum: both epoch records, replayed
	// with every journaled line.
	if rec := s2.Status().Recovery; rec == nil || rec.ReplayedSwaps != 2 || rec.ReplayedRecords != uint64(len(lines)+2) {
		t.Fatalf("top-level recovery %+v, want 2 replayed swaps in %d records", rec, len(lines)+2)
	}
	onModel(s2, compiled(s2, fpB), "replayed epoch")

	sw, err := s2.RollbackModel()
	if err != nil {
		t.Fatal(err)
	}
	if sw.To != fpA {
		t.Fatalf("rolled back to %s, want %s", sw.To, fpA)
	}
	onModel(s2, s2.bootModel, "rollback to the boot version")
}

// TestBootVersionIsTheManagersModel: every server runs a registry whose boot
// version is the Manager passed to New — the registry's active compiled form
// is that Manager's *Model, not a compile of its own, and the chains,
// templates and options it stores re-fingerprint to it — in memory and
// under a data dir alike.
func TestBootVersionIsTheManagersModel(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		s := newModelTestServer(t, Config{TCPAddr: "off", DataDir: dir})
		boot := s.shards[0].Manager().Model()
		fp := boot.FingerprintHex()
		reg := s.Registry()
		if reg.Active() != fp || reg.Base() != fp {
			t.Fatalf("data dir %q: registry active %s, base %s; the Manager runs %s", dir, reg.Active(), reg.Base(), fp)
		}
		if c, err := reg.Compiled(fp); err != nil || c != boot {
			t.Fatalf("data dir %q: registry's compiled form %p (%v), the Manager's %p", dir, c, err, boot)
		}
		stored, entry, err := reg.Get(fp)
		if err != nil {
			t.Fatal(err)
		}
		chains, inventory, opts := boot.Source()
		if !reflect.DeepEqual(stored.Chains, chains) || !reflect.DeepEqual(stored.Templates, inventory) || stored.Options != opts {
			t.Fatalf("data dir %q: the registry stores another model than the Manager's", dir)
		}
		if got := stored.Fingerprint(); got != fp || entry.Fingerprint != fp || entry.Source != "boot" {
			t.Fatalf("data dir %q: stored model fingerprints to %s, entry %+v; want %s from boot", dir, got, entry, fp)
		}
		if st := s.Status().Model; st == nil || st.Active != fp || st.Versions != 1 {
			t.Fatalf("data dir %q: model status %+v", dir, st)
		}
		if dir != "" {
			if _, err := os.Stat(filepath.Join(dir, "models", fp+".model.json")); err != nil {
				t.Fatalf("boot version not stored under the data dir: %v", err)
			}
		}
	}
}

// TestBootDataDirWrittenWithoutRegistry boots testdata/datadir-no-registry,
// a data dir written by a release whose in-process servers could run
// without a model registry: no models/ directory, a snapshot taken inside
// two failure chains, and a journal tail of whole lines (one of which does
// not parse). The recovery counters and recovered outputs are the ones
// that release booted it to.
func TestBootDataDirWrittenWithoutRegistry(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"wal", "snapshots"} {
		files, err := filepath.Glob(filepath.Join("testdata", "datadir-no-registry", sub, "*"))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: want one committed file, found %v (%v)", sub, files, err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, filepath.Base(files[0])), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newPersistentServer(t, Config{DataDir: dir, Fsync: wal.SyncOff})
	defer shutdownServer(t, s)

	rec := *s.Status().Recovery
	rec.DurationSeconds, rec.SnapshotLoadSeconds, rec.ReplaySeconds = 0, 0, 0
	want := RecoveryStatus{
		Performed: true, SnapshotIndex: 120, ReplayedRecords: 155, ReplayErrors: 1,
		RecoveredOutputs: 4, ReplayBytes: 12992, ReplayTokens: 19,
	}
	if rec != want {
		t.Errorf("recovery %+v\nwant     %+v", rec, want)
	}
	var got []string
	for _, out := range s.Recovered() {
		if k := outKey(out); k != "" {
			got = append(got, k)
		}
	}
	sort.Strings(got)
	wantOuts := []string{
		"F/c0-0c0s0n0/1105/1426292575364000000",
		"F/c0-0c0s0n1/1105/1426292621287000000",
		"P/c0-0c0s0n0/FC1/1426292374029000000/1426292477205000000/5",
		"P/c0-0c0s0n1/FC2/1426292454559000000/1426292459603000000/4",
	}
	if strings.Join(got, "\n") != strings.Join(wantOuts, "\n") {
		t.Errorf("recovered outputs\n%v\nwant\n%v", got, wantOuts)
	}
	fp := s.shards[0].Manager().FingerprintHex()
	if reg := s.Registry(); reg.Active() != fp || reg.Base() != fp || len(reg.List()) != 1 {
		t.Errorf("registry active %s, base %s, %d versions; want the boot model %s only", reg.Active(), reg.Base(), len(reg.List()), fp)
	}
}

// TestStartRejectsModelVetRejects: the boot version passes the registry's
// vet gate like every other version, so Start over BG/P's model — whose
// inventory shadows two templates — fails with registry.ErrRejected, before
// any journal opens or goroutine starts.
func TestStartRejectsModelVetRejects(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1
		}
		return len(ents)
	}
	d := loggen.DialectBGP
	dir := t.TempDir()
	goroutines, files := runtime.NumGoroutine(), fds()
	mgr, err := predictor.NewManager(d.Chains(), d.Inventory(), predictor.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A snapshot loop and both listeners would be running had the boot got
	// past admission.
	s := New(mgr, Config{DataDir: dir, SnapshotInterval: time.Millisecond})
	if err := s.Start(); !errors.Is(err, registry.ErrRejected) {
		t.Fatalf("Start over BG/P = %v, want registry.ErrRejected", err)
	}
	if s.TCPAddr() != nil || s.HTTPAddr() != nil {
		t.Error("a rejected boot bound a listener")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected boot opened a journal (%v)", err)
	}
	waitFor(t, 5*time.Second, "the rejected boot's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})
	if now := fds(); now > files {
		t.Errorf("%d open files after the rejected boot, %d before", now, files)
	}
}
