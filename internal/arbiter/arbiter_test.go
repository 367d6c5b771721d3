package arbiter

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

var testBase = time.Date(2015, 3, 14, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return testBase.Add(d) }

// --- Noisy-OR property tests (satellite: monotone in each source, bounded) ---

func randProbs(rng *rand.Rand) []float64 {
	ps := make([]float64, 1+rng.Intn(6))
	for i := range ps {
		// Include out-of-range values: clamping is part of the contract.
		ps[i] = rng.Float64()*1.6 - 0.3
	}
	return ps
}

func TestFuseNoisyORBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10000; trial++ {
		ps := randProbs(rng)
		p := FuseNoisyOR(ps)
		if p < 0 || p > 1 {
			t.Fatalf("FuseNoisyOR(%v) = %v, outside [0,1]", ps, p)
		}
	}
	if p := FuseNoisyOR(nil); p != 0 {
		t.Fatalf("FuseNoisyOR(nil) = %v, want 0", p)
	}
	if p := FuseNoisyOR([]float64{1, 0.2}); p != 1 {
		t.Fatalf("a certain source must dominate: got %v", p)
	}
}

func TestFuseNoisyORMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10000; trial++ {
		ps := randProbs(rng)
		base := FuseNoisyOR(ps)
		i := rng.Intn(len(ps))
		bumped := append([]float64(nil), ps...)
		bumped[i] += rng.Float64() * (1.3 - bumped[i])
		if got := FuseNoisyOR(bumped); got < base-1e-12 {
			t.Fatalf("raising source %d of %v from %v to %v lowered the fusion: %v -> %v",
				i, ps, ps[i], bumped[i], base, got)
		}
	}
}

func TestFuseNoisyORSingleSource(t *testing.T) {
	for _, p := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := FuseNoisyOR([]float64{p}); got != p {
			t.Fatalf("FuseNoisyOR([%v]) = %v, want the input unchanged", p, got)
		}
	}
}

// --- phi-accrual behavior ---

// feedRegular emits beats for node every step, starting at start, count times.
func feedRegular(a *Arbiter, node string, start time.Time, step time.Duration, count int) time.Time {
	ts := start
	for i := 0; i < count; i++ {
		a.ObserveHeartbeat(node, ts)
		ts = ts.Add(step)
	}
	return ts.Add(-step) // last beat time
}

func TestPhiRisesWithSilence(t *testing.T) {
	a := New(Config{})
	last := feedRegular(a, "n1", at(0), 10*time.Second, 20)

	// Probability rises strictly with silence until phi hits its cap, and
	// never decreases after.
	capP := 16.0 / (16.0 + 4.0) // PhiCap / (PhiCap + PhiHalf) defaults
	prev := -1.0
	for _, silence := range []time.Duration{30 * time.Second, 2 * time.Minute, 10 * time.Minute, 30 * time.Minute} {
		// Advance stream time through another node's traffic.
		a.ObserveHeartbeat("n2", last.Add(silence))
		p, ok := a.Probe("n1")
		if !ok {
			t.Fatal("n1 not tracked")
		}
		if p < prev || (prev < capP-1e-9 && p <= prev) {
			t.Fatalf("silence %v: probability %v did not rise above %v", silence, p, prev)
		}
		prev = p
	}
	if prev < 0.7 {
		t.Fatalf("a 30-minute silence on a 10s cadence should be near-certain, got %v", prev)
	}
	// The healthy chatterbox itself stays quiet-alarm free.
	feedRegular(a, "n2", last, 10*time.Second, 20)
	if p, _ := a.Probe("n2"); p > 0.2 {
		t.Fatalf("healthy node scored %v", p)
	}
}

func TestPhiNeedsMinSamples(t *testing.T) {
	a := New(Config{MinSamples: 8})
	feedRegular(a, "n1", at(0), 10*time.Second, 4) // 3 intervals < MinSamples
	a.ObserveHeartbeat("n2", at(time.Hour))
	if p, _ := a.Probe("n1"); p != 0 {
		t.Fatalf("below MinSamples the heartbeat source must stay silent, got %v", p)
	}
}

func TestColdRestartResetsWindow(t *testing.T) {
	a := New(Config{})
	last := feedRegular(a, "n1", at(0), 10*time.Second, 20)
	failAt := last.Add(5 * time.Second)
	a.ObserveFailure("n1", failAt)

	st := a.Status()
	if st.Down != 1 || st.Top[0].Node != "n1" || !st.Top[0].Down {
		t.Fatalf("node should be down after an observed failure: %+v", st.Top)
	}
	// A down node inside the horizon carries the down evidence.
	if p, _ := a.Probe("n1"); p < 0.9 {
		t.Fatalf("down node scored only %v", p)
	}

	// Restart traffic 20 minutes later: window resets, stability phase starts.
	restart := failAt.Add(20 * time.Minute)
	a.ObserveHeartbeat("n1", restart)
	al := probeAlert(a, "n1")
	if al.Down {
		t.Fatal("node should be back up after post-failure traffic")
	}
	if al.Flaps != 1 {
		t.Fatalf("flaps = %d, want 1", al.Flaps)
	}
	if al.PFlap <= 0 {
		t.Fatal("freshly restarted flapper should carry flap evidence")
	}
	if al.Phi != 0 {
		t.Fatalf("phi should restart from an empty window, got %v", al.Phi)
	}
	// The restart beat opens a fresh window: five restart beats hold four
	// post-restart samples, none from before the crash.
	feedRegular(a, "n1", restart.Add(10*time.Second), 10*time.Second, 4)
	if st := a.Status(); st.Top[0].Node != "n1" || st.Top[0].Samples != 4 {
		t.Fatalf("post-restart window = %+v, want 4 samples (5 restart beats)", st.Top[0])
	}
	// Instability decays as uptime accrues (clock advances via n2).
	early := probeAlert(a, "n1").PFlap
	a.ObserveHeartbeat("n2", restart.Add(4*time.Hour))
	if late := probeAlert(a, "n1").PFlap; late >= early {
		t.Fatalf("flap evidence should decay with uptime: %v -> %v", early, late)
	}
}

// probeAlert scores one node through the full alert path.
func probeAlert(a *Arbiter, node string) Alert {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[node]
	if ns == nil {
		return Alert{}
	}
	a.resolveNode(ns)
	var al Alert
	a.scoreNode(ns, &al)
	return al
}

// --- chain precision ledger ---

func TestChainPrecisionResolution(t *testing.T) {
	a := New(Config{Horizon: 10 * time.Minute})
	// Prediction followed by a failure inside the horizon: TP.
	a.ObservePrediction("n1", "fc_a", at(0))
	a.ObserveFailure("n1", at(4*time.Minute))
	// Prediction with an empty horizon: FP once the clock passes expiry.
	a.ObservePrediction("n2", "fc_a", at(0))
	a.ObserveHeartbeat("n3", at(30*time.Minute)) // advance stream time
	_ = a.Alerts()                               // force resolution everywhere

	st := a.Status()
	if len(st.Chains) != 1 || st.Chains[0].TP != 1 || st.Chains[0].FP != 1 {
		t.Fatalf("chain ledger = %+v, want tp=1 fp=1", st.Chains)
	}
	// Beta posterior (1+4)/(2+5) with the default 4/1 prior.
	if got, want := st.Chains[0].LinkProb, 5.0/7.0; got != want {
		t.Fatalf("link probability = %v, want %v", got, want)
	}
}

// StatusOf over arbiters that split the node space must report the block
// one arbiter over every node reports: counters sum, chain ledgers merge with
// the link probability recomputed, and the capped top list merges in Alerts
// order.
func TestStatusOfPartitionsMatchWhole(t *testing.T) {
	cfg := Config{Horizon: 10 * time.Minute, MaxStatusNodes: 3}
	whole := New(cfg)
	parts := []*Arbiter{New(cfg), New(cfg)}
	end := at(30 * time.Minute)
	for i := 0; i < 8; i++ {
		node := fmt.Sprintf("n%d", i)
		step := time.Duration(5+i) * time.Second
		for _, a := range []*Arbiter{whole, parts[i%2]} {
			last := feedRegular(a, node, at(0), step, 20)
			switch i % 4 {
			case 0:
				a.ObservePrediction(node, "fc_a", last.Add(time.Second))
				a.ObserveFailure(node, last.Add(2*time.Minute))
			case 1:
				a.ObservePrediction(node, "fc_a", last.Add(time.Second))
			case 2:
				a.ObservePrediction(node, "fc_b", last.Add(time.Second))
			}
			a.ObserveHeartbeat(node, end.Add(-time.Duration(i)*time.Minute))
		}
	}
	// One beat in each partition at end puts every stream clock there, so
	// evidence expires alike in the whole and in the parts.
	for i, node := range []string{"n0", "n1"} {
		whole.ObserveHeartbeat(node, end)
		parts[i].ObserveHeartbeat(node, end)
	}
	got, want := mustJSON(t, StatusOf(parts...)), mustJSON(t, whole.Status())
	if got != want {
		t.Fatalf("StatusOf over the partitions:\n%s\nwant the whole arbiter's:\n%s", got, want)
	}
	if st := whole.Status(); len(st.Top) != 3 || len(st.Chains) != 2 || st.Chains[0].TP == 0 || st.Chains[0].FP == 0 {
		t.Fatalf("fixture does not exercise the cap and the ledger merge: %+v", st)
	}
}

func TestPredictionEvidenceExpires(t *testing.T) {
	a := New(Config{Horizon: 10 * time.Minute})
	feedRegular(a, "n1", at(0), time.Second, 10)
	a.ObservePrediction("n1", "fc_a", at(10*time.Second))
	if al := probeAlert(a, "n1"); len(al.Chains) != 1 || al.Probability < 0.5 {
		t.Fatalf("live chain evidence missing: %+v", al)
	}
	// Keep the node itself chatty so only the chain evidence can expire.
	feedRegular(a, "n1", at(11*time.Second), time.Second, 1000)
	if al := probeAlert(a, "n1"); len(al.Chains) != 0 {
		t.Fatalf("chain evidence should expire after the horizon: %+v", al.Chains)
	}
}

func TestDuplicatePredictionIdempotent(t *testing.T) {
	a := New(Config{})
	a.ObservePrediction("n1", "fc_a", at(0))
	a.ObservePrediction("n1", "fc_a", at(0)) // replayed across recovery
	if al := probeAlert(a, "n1"); len(al.Chains) != 1 {
		t.Fatalf("duplicate prediction double-counted: %+v", al.Chains)
	}
}

// --- feeders: per-node order by construction, expiry per feeder ---

func snapshotBytes(t *testing.T, a *Arbiter) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFeederClockExpiry: a node's chain evidence expires on the clock of the
// feeder that delivers the node, not the stream clock. Feeder 1 runs more
// than a horizon ahead of feeder 0, whose node n0 has a pending prediction
// and a failure inside its window that feeder 0 has not delivered yet. An
// Alerts poll in the gap books nothing, and once feeder 0 catches up the
// ledger and the whole state are those of one arbiter fed in stream order.
func TestFeederClockExpiry(t *testing.T) {
	cfg := Config{Horizon: 10 * time.Minute}
	type step struct {
		feeder int
		ev     core.Event
	}
	var stream []step // in stream (timestamp) order
	for i := 0; i < 120; i++ {
		ts := at(time.Duration(i) * 15 * time.Second)
		for f, node := range []string{"n0", "n1"} {
			stream = append(stream, step{f, core.Event{Kind: core.EventBeat, Node: node, Time: ts}})
		}
		switch i {
		case 10:
			stream = append(stream, step{0, core.Event{Kind: core.EventPrediction, Node: "n0", Time: ts, Chain: "fc_a"}})
		case 30: // 5 minutes later, inside the horizon
			stream = append(stream, step{0, core.Event{Kind: core.EventFailure, Node: "n0", Time: ts}})
		}
	}

	ref := New(cfg)
	for _, s := range stream {
		ref.Observe(0, []core.Event{s.ev})
	}

	a := New(cfg)
	var lag []core.Event // feeder 0's events after line 20, held back
	for _, s := range stream {
		switch {
		case s.feeder == 1:
			a.Observe(1, []core.Event{s.ev})
		case s.ev.Time.After(at(20 * 15 * time.Second)):
			lag = append(lag, s.ev)
		default:
			a.Observe(0, []core.Event{s.ev})
		}
	}
	// Feeder 1 is now 25 minutes past the prediction: the stream clock says
	// its horizon is over, feeder 0's clock says it is not.
	_ = a.Alerts()
	if st := a.Status(); len(st.Chains) != 1 || st.Chains[0].TP+st.Chains[0].FP != 0 {
		t.Fatalf("evidence of a lagging feeder's node resolved early: %+v", st.Chains)
	}
	a.Observe(0, lag)
	st, want := a.Status(), ref.Status()
	if st.Chains[0].TP != 1 || st.Chains[0].FP != 0 {
		t.Fatalf("chain ledger %+v, want the in-order TP", st.Chains)
	}
	if mustJSON(t, st) != mustJSON(t, want) {
		t.Fatalf("status after catch-up:\n %+v\nin-order\n %+v", st, want)
	}
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, ref)) {
		t.Fatal("snapshot after catch-up differs from the in-order arbiter's")
	}
}

// TestRestoreSnapshotWithArrivals: a snapshot written when the arbiter still
// kept a per-node arrival ring (its nodes carry an Arrivals field) restores
// under the same version, and Status and Alerts equal what the writing
// version reported for it.
func TestRestoreSnapshotWithArrivals(t *testing.T) {
	data, err := os.ReadFile("testdata/arrivals-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Criticality: map[string]int{"n1": 1}, AlertThreshold: 1e-9})
	if err := a.Restore(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]string{
		"status": mustJSON(t, a.Status()),
		"alerts": mustJSON(t, a.Alerts()),
	} {
		want, err := os.ReadFile("testdata/arrivals-v1." + name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if got != strings.TrimSpace(string(want)) {
			t.Errorf("%s after restore:\n got  %s\n want %s", name, got, want)
		}
	}
}

// --- ranked output determinism (satellite: stable sort by score then node) ---

func TestAlertsDeterministicOrder(t *testing.T) {
	cfg := Config{AlertThreshold: 0.1, Criticality: map[string]int{"n-c": 1}}
	build := func(order []string) []Alert {
		a := New(cfg)
		for _, n := range order {
			a.ObserveFailure(n, at(time.Minute)) // identical evidence each
		}
		return a.Alerts()
	}
	fwd := build([]string{"n-a", "n-b", "n-c", "n-d"})
	rev := build([]string{"n-d", "n-c", "n-b", "n-a"})
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("insertion order leaked into the ranking:\n%+v\n%+v", fwd, rev)
	}
	if len(fwd) != 4 {
		t.Fatalf("want 4 alerts, got %d", len(fwd))
	}
	// n-c carries tier-1 weight: highest score despite equal probability.
	if fwd[0].Node != "n-c" || fwd[0].Score <= fwd[1].Score {
		t.Fatalf("criticality weighting should rank n-c first: %+v", fwd)
	}
	// The remaining ties break by node ID ascending.
	if fwd[1].Node != "n-a" || fwd[2].Node != "n-b" || fwd[3].Node != "n-d" {
		t.Fatalf("tie-break order wrong: %+v", fwd)
	}
	for _, al := range fwd {
		if al.Probability < 0 || al.Probability > 1 {
			t.Fatalf("probability %v outside [0,1]", al.Probability)
		}
	}
}

func TestAlertThresholdFilters(t *testing.T) {
	a := New(Config{AlertThreshold: 0.5})
	feedRegular(a, "healthy", at(0), 10*time.Second, 30)
	a.ObserveFailure("dead", at(5*time.Minute))
	alerts := a.Alerts()
	if len(alerts) != 1 || alerts[0].Node != "dead" {
		t.Fatalf("only the dead node should alert: %+v", alerts)
	}
}

// --- snapshot / restore ---

// buildRichState exercises every state dimension: phi windows, flap
// history, down nodes, pending and resolved chain evidence.
func buildRichState(t *testing.T) *Arbiter {
	t.Helper()
	a := New(Config{Criticality: map[string]int{"n1": 1}})
	last := feedRegular(a, "n1", at(0), 10*time.Second, 30)
	feedRegular(a, "n2", at(0), 25*time.Second, 20)
	a.ObservePrediction("n1", "fc_hw", last.Add(time.Second))
	a.ObserveFailure("n1", last.Add(2*time.Minute))
	feedRegular(a, "n1", last.Add(12*time.Minute), 10*time.Second, 6)
	a.ObservePrediction("n2", "fc_sw", at(time.Minute))
	a.ObserveHeartbeat("n3", last.Add(20*time.Minute))
	_ = a.Alerts()
	return a
}

func TestSnapshotRoundTrip(t *testing.T) {
	a := buildRichState(t)
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(a.Config())
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Scores must be bit-identical: JSON encodes every float exactly.
	wantAlerts, gotAlerts := mustJSON(t, a.Alerts()), mustJSON(t, b.Alerts())
	if wantAlerts != gotAlerts {
		t.Fatalf("alerts diverge after restore:\n want %s\n got  %s", wantAlerts, gotAlerts)
	}
	wantSt, gotSt := mustJSON(t, a.Status()), mustJSON(t, b.Status())
	if wantSt != gotSt {
		t.Fatalf("status diverges after restore:\n want %s\n got  %s", wantSt, gotSt)
	}

	// Identical states serialize to identical bytes (node/chain order is
	// canonicalized), so snapshot content is comparable across runs.
	var buf2 bytes.Buffer
	if err := a.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestSnapshotRestoreContinues(t *testing.T) {
	// A restored arbiter must keep evolving identically to the original:
	// feed both the same post-snapshot events and compare.
	a := buildRichState(t)
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(a.Config())
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, ar := range []*Arbiter{a, b} {
		feedRegular(ar, "n1", at(2*time.Hour), 15*time.Second, 10)
		ar.ObserveFailure("n2", at(2*time.Hour+time.Minute))
		ar.ObservePrediction("n3", "fc_hw", at(2*time.Hour+2*time.Minute))
	}
	if want, got := mustJSON(t, a.Alerts()), mustJSON(t, b.Alerts()); want != got {
		t.Fatalf("post-restore evolution diverges:\n want %s\n got  %s", want, got)
	}
}

func TestRestoreRejectsBadVersion(t *testing.T) {
	a := New(Config{})
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	if err := b.Restore(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage must not restore")
	}
	if err := b.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// --- hot-path allocation pins (satellite: 0 allocs/op, aarohilint-checked) ---

func TestObserveHeartbeatZeroAlloc(t *testing.T) {
	a := New(Config{})
	ts := at(0)
	feedRegular(a, "n1", ts, time.Second, 100) // warm: node exists, rings allocated
	ts = ts.Add(200 * time.Second)
	if avg := testing.AllocsPerRun(1000, func() {
		a.ObserveHeartbeat("n1", ts)
		ts = ts.Add(time.Second)
	}); avg != 0 {
		t.Fatalf("ObserveHeartbeat allocates %.1f/op on the steady path, want 0", avg)
	}
}

func TestAlertsIntoZeroAlloc(t *testing.T) {
	a := scoringFixture(64)
	buf := a.AlertsInto(nil) // warm: slots and Chains arrays allocated
	if len(buf) == 0 {
		t.Fatal("fixture produced no alerts")
	}
	if avg := testing.AllocsPerRun(1000, func() {
		buf = a.AlertsInto(buf[:0])
	}); avg != 0 {
		t.Fatalf("AlertsInto allocates %.1f/op with a recycled buffer, want 0", avg)
	}
}

// scoringFixture builds an arbiter with n nodes, some down, flapping, and
// carrying chain evidence — the shape the scoring benchmark measures.
func scoringFixture(n int) *Arbiter {
	a := New(Config{AlertThreshold: 0.2})
	for i := 0; i < n; i++ {
		node := "c0-0c0s0n" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		last := feedRegular(a, node, at(0), 10*time.Second, 16)
		switch i % 3 {
		case 0:
			a.ObserveFailure(node, last.Add(time.Minute))
		case 1:
			a.ObservePrediction(node, "fc_bench", last.Add(time.Second))
		}
	}
	return a
}

func BenchmarkArbiterObserveHeartbeat(b *testing.B) {
	a := New(Config{})
	ts := at(0)
	feedRegular(a, "n1", ts, time.Second, 100)
	ts = ts.Add(200 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveHeartbeat("n1", ts)
		ts = ts.Add(time.Second)
	}
}

// BenchmarkArbiterScore times a full ranked-alert pass over 64 live nodes
// (TestAlertsIntoZeroAlloc pins it at 0 allocs).
func BenchmarkArbiterScore(b *testing.B) {
	a := scoringFixture(64)
	buf := a.AlertsInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.AlertsInto(buf[:0])
	}
}
