package predictor

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/loggen"
)

// drainManager consumes Results on a goroutine, acking flush markers and
// collecting prediction keys. Returns (keys, done): read keys only after
// done is closed.
func drainManager(m *Manager) (*[]string, chan struct{}) {
	var keys []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range m.Results() {
			if out.IsFlush() {
				out.Ack()
				continue
			}
			if out.Prediction != nil {
				keys = append(keys, predKey(out.Prediction.Node, out.Prediction.ChainName, out.Prediction.MatchedAt))
			}
		}
	}()
	return &keys, done
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestPredictorSnapshotRestoreTransparent(t *testing.T) {
	log := genLog(t, 77, 8, 6)
	ref := newPredictor(t, log, Options{})
	refPreds, refFails := runLog(ref, log)
	if len(refPreds) == 0 || len(refFails) == 0 {
		t.Fatal("reference run produced nothing")
	}

	// Interrupted run: snapshot + restore into a fresh predictor at the
	// half-way point.
	p := newPredictor(t, log, Options{})
	half := len(log.Events) / 2
	var preds []string
	for _, e := range log.Events[:half] {
		if out := p.ProcessToken(core.Token{Phrase: e.Phrase, Time: e.Time, Node: e.Node}); out.Prediction != nil {
			preds = append(preds, predKey(out.Prediction.Node, out.Prediction.ChainName, out.Prediction.MatchedAt))
		}
	}
	st := p.Snapshot()
	p2 := newPredictor(t, log, Options{})
	if err := p2.Restore(st); err != nil {
		t.Fatal(err)
	}
	for _, e := range log.Events[half:] {
		if out := p2.ProcessToken(core.Token{Phrase: e.Phrase, Time: e.Time, Node: e.Node}); out.Prediction != nil {
			preds = append(preds, predKey(out.Prediction.Node, out.Prediction.ChainName, out.Prediction.MatchedAt))
		}
	}

	var want []string
	for _, pr := range refPreds {
		want = append(want, predKey(pr.Node, pr.ChainName, pr.MatchedAt))
	}
	if got, want := sortedCopy(preds), sortedCopy(want); len(got) != len(want) {
		t.Fatalf("predictions: got %d, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("prediction %d: %s != %s", i, got[i], want[i])
			}
		}
	}
	if p2.Stats() != ref.Stats() {
		t.Errorf("stats diverge: got %+v want %+v", p2.Stats(), ref.Stats())
	}
}

// TestModelSourceFingerprints: a compiled model returns the chains,
// inventory and options it was compiled from, and they fingerprint to the
// model's own identity — so a store can admit a compiled model as is.
func TestModelSourceFingerprints(t *testing.T) {
	for _, opts := range []Options{{}, {Timeout: 7 * time.Minute, DisableFactoring: true}, {KeepTerminal: true}} {
		d := loggen.DialectXE6
		m, err := Compile(d.Chains(), d.Inventory(), opts)
		if err != nil {
			t.Fatal(err)
		}
		chains, inventory, gotOpts := m.Source()
		if len(chains) != len(d.Chains()) || len(inventory) != len(d.Inventory()) || gotOpts != opts {
			t.Fatalf("Source() = %d chains, %d templates, %+v; compiled from %d, %d, %+v",
				len(chains), len(inventory), gotOpts, len(d.Chains()), len(d.Inventory()), opts)
		}
		if fp := fmt.Sprintf("%016x", ModelFingerprint(chains, inventory, gotOpts)); fp != m.FingerprintHex() {
			t.Fatalf("options %+v: Source() fingerprints to %s, the model is %s", opts, fp, m.FingerprintHex())
		}
	}
}

func TestPredictorRestoreRejectsWrongModel(t *testing.T) {
	log := genLog(t, 5, 4, 2)
	p1 := newPredictor(t, log, Options{})
	st := p1.Snapshot()

	other, err := New(loggen.DialectXE6.Chains(), loggen.DialectXE6.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(st); err == nil {
		t.Fatal("restore under a different model succeeded")
	}
	// Same chains, different options → different fingerprint too.
	p3 := newPredictor(t, log, Options{Timeout: 7 * time.Minute})
	if err := p3.Restore(st); err == nil {
		t.Fatal("restore under different options succeeded")
	}
}

func TestManagerSnapshotRestoreAcrossWorkerCounts(t *testing.T) {
	log := genLog(t, 31, 12, 8)
	chains, inv := log.Dialect.Chains(), log.Dialect.Inventory()

	// Uninterrupted reference.
	ref, err := NewManager(chains, inv, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	refKeys, refDone := drainManager(ref)
	for _, e := range log.Events {
		if err := ref.ProcessLine(e.Line()); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()
	<-refDone
	refStats := ref.Stats()

	// Interrupted: snapshot a 3-worker manager mid-stream, restore into a
	// 5-worker one.
	m1, err := NewManager(chains, inv, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	keys1, done1 := drainManager(m1)
	half := len(log.Events) / 2
	for _, e := range log.Events[:half] {
		if err := m1.ProcessLine(e.Line()); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := m1.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	<-done1

	m2, err := NewManager(chains, inv, Options{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	keys2, done2 := drainManager(m2)
	for _, e := range log.Events[half:] {
		if err := m2.ProcessLine(e.Line()); err != nil {
			t.Fatal(err)
		}
	}
	m2.Close()
	<-done2

	got := sortedCopy(append(append([]string(nil), *keys1...), *keys2...))
	want := sortedCopy(*refKeys)
	if len(got) != len(want) {
		t.Fatalf("predictions: got %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d: %s != %s", i, got[i], want[i])
		}
	}
	if s2 := m2.Stats(); s2 != refStats {
		t.Errorf("stats after restore diverge: got %+v want %+v", s2, refStats)
	}
}

func TestManagerRestoreRejectsCorruptSnapshot(t *testing.T) {
	log := genLog(t, 8, 6, 3)
	chains, inv := log.Dialect.Chains(), log.Dialect.Inventory()
	m, err := NewManager(chains, inv, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	// Snapshot from a different model.
	other, err := NewManager(loggen.DialectXE6.Chains(), loggen.DialectXE6.Inventory(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys, done := drainManager(other)
	_ = keys
	var snap bytes.Buffer
	if err := other.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	other.Close()
	<-done
	if err := m.Restore(bytes.NewReader(snap.Bytes())); err == nil {
		t.Fatal("snapshot from different model accepted")
	}
}

func TestManagerFlushBarrier(t *testing.T) {
	log := genLog(t, 21, 8, 5)
	chains, inv := log.Dialect.Chains(), log.Dialect.Inventory()
	m, err := NewManager(chains, inv, Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range m.Results() {
			if out.IsFlush() {
				out.Ack()
				continue
			}
			received.Add(1)
		}
	}()
	for _, e := range log.Events {
		if err := m.ProcessLine(e.Line()); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	// Post-barrier: every event is fully processed (Stats reconciles with
	// Accepted) and every output has crossed the results channel.
	afterFlush := received.Load()
	if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() {
		t.Errorf("after Flush: LinesScanned %d != Accepted %d", st.LinesScanned, m.Accepted())
	}
	m.Close()
	<-done
	if final := received.Load(); final != afterFlush {
		t.Errorf("outputs arrived after Flush returned: %d then %d", afterFlush, final)
	}
	if err := m.Flush(); err != ErrClosed {
		t.Errorf("Flush after Close = %v, want ErrClosed", err)
	}
}

// TestManagerStatsDuringCloseReconciles is the regression test for reading
// Stats while workers are still draining during Close: Stats must stay
// data-race-free and internally consistent mid-drain, and once Results
// closes the processed count must reconcile with the accepted count exactly
// (nothing lost, nothing double-counted).
func TestManagerStatsDuringCloseReconciles(t *testing.T) {
	log := genLog(t, 13, 10, 6)
	chains, inv := log.Dialect.Chains(), log.Dialect.Inventory()

	for iter := 0; iter < 5; iter++ {
		m, err := NewManager(chains, inv, Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		_, done := drainManager(m)

		var sent atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(log.Events); i += 4 {
					e := log.Events[i]
					if err := m.ProcessLine(e.Line()); err != nil {
						return // ErrClosed: racing Close won
					}
					sent.Add(1)
				}
			}(g)
		}
		// Hammer Stats concurrently with the drain that Close triggers.
		statsDone := make(chan struct{})
		go func() {
			defer close(statsDone)
			for i := 0; i < 100; i++ {
				st := m.Stats()
				if st.LinesScanned < 0 || uint64(st.LinesScanned) > m.Accepted() {
					t.Errorf("mid-drain Stats LinesScanned %d exceeds Accepted %d", st.LinesScanned, m.Accepted())
					return
				}
			}
		}()
		m.Close()
		wg.Wait()
		<-done
		<-statsDone

		if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() || m.Accepted() != sent.Load() {
			t.Fatalf("iter %d: LinesScanned %d, Accepted %d, sent %d — must all agree after drain",
				iter, st.LinesScanned, m.Accepted(), sent.Load())
		}
	}
}
