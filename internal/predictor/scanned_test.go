package predictor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
)

// ProcessScanned is the entry boot replay feeds: lines parsed and scanned
// outside the manager, only their tokens and counts handed over. These tests
// pin it to ProcessLineBatch on the same lines.

// scanLines is boot replay's scan stage in miniature: every line parsed and
// scanned in place, only those that tokenize copied out — or, with keepAll,
// every parseable line, the discarded ones as NoPhrase tokens.
func scanLines(model *Model, lines []string, keepAll bool) *Scanned {
	s := &Scanned{Model: model}
	var p lexgen.LineParser
	for _, line := range lines {
		ts, node, msg, err := p.ParseBytes([]byte(line))
		if err != nil {
			s.ParseErrors++
			continue
		}
		id, ok := model.Scanner().ScanBytes(msg)
		if !ok && !keepAll {
			s.Discarded++
			continue
		}
		if !ok {
			id = core.NoPhrase
		}
		s.Tokens = append(s.Tokens, core.Token{Phrase: id, Time: ts, Node: string(node)})
	}
	return s
}

// collectPerNode drains m's Results, acking barriers, into per-node output
// sequences; the map is complete once done closes.
func collectPerNode(m *Manager) (map[string][]string, <-chan struct{}) {
	perNode := map[string][]string{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range m.Results() {
			if out.IsFlush() {
				out.Ack()
				continue
			}
			if p := out.Prediction; p != nil {
				perNode[p.Node] = append(perNode[p.Node], predKey(p.Node, p.ChainName, p.MatchedAt))
			}
			if f := out.Failure; f != nil {
				perNode[f.Node] = append(perNode[f.Node], fmt.Sprintf("F/%d/%d", f.Phrase, f.Time.UnixNano()))
			}
		}
	}()
	return perNode, done
}

// TestProcessScannedMatchesLineBatch: the same lines, malformed ones
// included, give the same per-node output order, Stats, Accepted and
// parse-error count through the token entry as through ProcessLineBatch.
func TestProcessScannedMatchesLineBatch(t *testing.T) {
	log := genLog(t, 31, 12, 6)
	var lines []string
	for i, line := range log.Lines() {
		if i%97 == 13 {
			lines = append(lines, "not a log line")
		}
		lines = append(lines, line)
	}
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 256
	for _, workers := range []int{1, 2, 4} {
		ref := model.NewManager(workers)
		want, refDone := collectPerNode(ref)
		m := model.NewManager(workers)
		got, done := collectPerNode(m)
		refErrs, errs := 0, 0
		for i := 0; i < len(lines); i += batch {
			chunk := lines[i:min(i+batch, len(lines))]
			pe, err := ref.ProcessLineBatch(chunk)
			if err != nil {
				t.Fatal(err)
			}
			refErrs += pe
			if pe, err = m.ProcessScanned(scanLines(model, chunk, false)); err != nil {
				t.Fatal(err)
			}
			errs += pe
		}
		ref.Close()
		m.Close()
		<-refDone
		<-done

		if len(want) == 0 {
			t.Fatal("reference run produced no outputs; the comparison would be vacuous")
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: outputs for %d nodes, ProcessLineBatch %d", workers, len(got), len(want))
		}
		for node, w := range want {
			if fmt.Sprint(got[node]) != fmt.Sprint(w) {
				t.Fatalf("workers=%d: node %s: token entry %v, ProcessLineBatch %v", workers, node, got[node], w)
			}
		}
		if st, refSt := m.Stats(), ref.Stats(); st != refSt {
			t.Fatalf("workers=%d: stats %+v, ProcessLineBatch %+v", workers, st, refSt)
		}
		if m.Accepted() != ref.Accepted() || uint64(m.Stats().LinesScanned) != m.Accepted() {
			t.Fatalf("workers=%d: Accepted %d, ProcessLineBatch %d, LinesScanned %d",
				workers, m.Accepted(), ref.Accepted(), m.Stats().LinesScanned)
		}
		if errs != refErrs || errs == 0 {
			t.Fatalf("workers=%d: %d parse errors, ProcessLineBatch %d", workers, errs, refErrs)
		}
	}
}

// TestProcessScannedRefusesWhole: after Close, and for a batch scanned under
// another model, the whole batch is refused and nothing is counted.
func TestProcessScannedRefusesWhole(t *testing.T) {
	log := genLog(t, 11, 4, 2)
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Compile(log.Dialect.Chains()[:2], log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := log.Lines()
	m := model.NewManager(3)
	_, done := collectPerNode(m)
	if _, err := m.ProcessScanned(scanLines(model, lines[:64], false)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ProcessScanned(scanLines(other, lines[64:128], false)); err != ErrModelMismatch {
		t.Fatalf("batch scanned under another model: %v, want ErrModelMismatch", err)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if a := m.Accepted(); a != 64 || m.Stats().LinesScanned != 64 {
		t.Fatalf("after a refused batch: Accepted %d, LinesScanned %d, want 64", a, m.Stats().LinesScanned)
	}
	m.Close()
	<-done
	if _, err := m.ProcessScanned(scanLines(model, lines[128:256], false)); err != ErrClosed {
		t.Fatalf("ProcessScanned after Close = %v, want ErrClosed", err)
	}
	if a := m.Accepted(); a != 64 || m.Stats().LinesScanned != 64 {
		t.Fatalf("after Close: Accepted %d, LinesScanned %d, want 64", a, m.Stats().LinesScanned)
	}
}

// TestProcessScannedCountOnly: a call that only counts discarded lines takes
// no batch and wakes no worker, so it returns while every worker is blocked
// and every worker's in-flight window is full. Its count is in Stats and
// Accepted at once, survives ExportState → ImportState and a migration into
// another model, is refused whole after Close, and LinesScanned equals
// Accepted once Results closes.
func TestProcessScannedCountOnly(t *testing.T) {
	log := genLog(t, 11, 8, 2)
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := Compile(log.Dialect.Chains()[:2], log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	// One line for each worker, by the placement ProcessLineBatch applies.
	var perWorker [workers]string
	for _, line := range log.Lines() {
		if _, node, _, err := lexgen.ParseLine(line); err == nil && perWorker[fnvIndex(node, workers)] == "" {
			perWorker[fnvIndex(node, workers)] = line
		}
	}
	m := model.NewManager(workers)
	_, done := collectPerNode(m)
	// entered has room for every batch the test sends, so only release
	// blocks a worker.
	entered, release := make(chan int, workers*(maxInflightBatches+2)), make(chan struct{})
	var blocked sync.Once
	m.SetObserver(func(w int, _ []core.Event) {
		entered <- w
		<-release
	})
	for _, line := range perWorker {
		if _, err := m.ProcessLineBatch([]string{line}); err != nil {
			t.Fatal(err)
		}
	}
	for range perWorker {
		<-entered
	}
	// The workers hold no slot while they run the observer: fill every
	// window behind them.
	for i := 0; i < maxInflightBatches; i++ {
		for _, line := range perWorker {
			if _, err := m.ProcessLineBatch([]string{line}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const k = 1000
	returned := make(chan error, 1)
	go func() {
		_, err := m.ProcessScanned(&Scanned{Model: model, Discarded: k})
		returned <- err
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		blocked.Do(func() { close(release) })
		t.Fatal("a count-only ProcessScanned waited for a worker")
	}
	if st := m.Stats(); st.Discarded < k || m.Accepted() != uint64(workers*(maxInflightBatches+1)+k) {
		t.Fatalf("with the workers blocked: Discarded %d, Accepted %d", st.Discarded, m.Accepted())
	}
	blocked.Do(func() { close(release) })
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	m.SetObserver(nil)
	want, err := m.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(want.LinesScanned) != m.Accepted() || want.Discarded < k {
		t.Fatalf("exported LinesScanned %d, Discarded %d; Accepted %d", want.LinesScanned, want.Discarded, m.Accepted())
	}

	restored := model.NewManager(2)
	if err := restored.ImportState(want); err != nil {
		t.Fatal(err)
	}
	swapped := other.NewManager(2)
	if _, err := swapped.AdoptState(want); err != nil {
		t.Fatal(err)
	}
	for name, mm := range map[string]*Manager{"restored": restored, "migrated": swapped} {
		st := mm.Stats()
		if st.LinesScanned != want.LinesScanned || st.Discarded != want.Discarded || st.Tokens != want.Tokens {
			t.Fatalf("%s: stats %+v, exported %d scanned %d discarded %d tokens", name, st, want.LinesScanned, want.Discarded, want.Tokens)
		}
		// A count after a restore adds to the restored one.
		if _, err := mm.ProcessScanned(&Scanned{Model: mm.Model(), Discarded: 7}); err != nil {
			t.Fatal(err)
		}
		if st := mm.Stats(); st.LinesScanned != want.LinesScanned+7 || st.Discarded != want.Discarded+7 {
			t.Fatalf("%s: after 7 more: LinesScanned %d, Discarded %d", name, st.LinesScanned, st.Discarded)
		}
		mm.Close()
	}

	accepted := m.Accepted()
	m.Close()
	if _, err := m.ProcessScanned(&Scanned{Model: model, Discarded: k}); err != ErrClosed {
		t.Fatalf("count-only ProcessScanned after Close = %v, want ErrClosed", err)
	}
	<-done
	if st := m.Stats(); m.Accepted() != accepted || uint64(st.LinesScanned) != accepted {
		t.Fatalf("after Close: Accepted %d, LinesScanned %d, want %d", m.Accepted(), st.LinesScanned, accepted)
	}
}

// TestFlushCoversScannedBatches: once Flush returns, every token batch sent
// before it is processed and its outputs are with the Results consumer.
func TestFlushCoversScannedBatches(t *testing.T) {
	log := genLog(t, 9, 8, 4)
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := log.Lines()
	ref := model.NewPredictor()
	outputs := 0
	for _, line := range lines {
		if out, err := ref.ProcessLine(line); err == nil && (out.Prediction != nil || out.Failure != nil) {
			outputs++
		}
	}
	if outputs == 0 {
		t.Fatal("the stream emits no outputs; the barrier would be vacuous")
	}
	m := model.NewManager(3)
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
	for i := 0; i < len(lines); i += 256 {
		if _, err := m.ProcessScanned(scanLines(model, lines[i:min(i+256, len(lines))], false)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := received.Load(); got != int64(outputs) {
		t.Fatalf("after Flush the consumer holds %d outputs, want %d", got, outputs)
	}
	if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() || st.LinesScanned != len(lines) {
		t.Fatalf("after Flush: LinesScanned %d, Accepted %d, lines %d", st.LinesScanned, m.Accepted(), len(lines))
	}
	m.Close()
	<-done
}

// TestProcessScannedBoundsInflight is TestManagerBoundsInflightBatches for
// the token entry: with Results unread the submitter stalls once
// maxInflightBatches batches wait per worker.
func TestProcessScannedBoundsInflight(t *testing.T) {
	log, _, lines := chunkLines(t, 64) // every line tokenizes: plenty of outputs to stall on
	const workers, batchLines = 2, 256
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var batches []*Scanned
	for i := 0; i+batchLines <= len(lines); i += batchLines {
		batches = append(batches, scanLines(model, lines[i:i+batchLines], false))
	}
	m := model.NewManager(workers)
	submitted := make(chan int, 1)
	go func() {
		n := 0
		for pass := 0; pass < 200; pass++ { // far more than any window holds
			for _, b := range batches {
				if _, err := m.ProcessScanned(b); err != nil {
					submitted <- n
					return
				}
				n += batchLines
			}
		}
		submitted <- n
	}()

	var accepted uint64
	for stable := 0; stable < 20; {
		time.Sleep(5 * time.Millisecond)
		if a := m.Accepted(); a == accepted && a > 0 {
			stable++
		} else {
			accepted, stable = a, 0
		}
	}
	select {
	case n := <-submitted:
		t.Fatalf("submitter finished all %d lines with Results unread: nothing stalled it", n)
	default:
	}
	inflight := int(accepted) - m.Stats().LinesScanned
	if bound := (workers*maxInflightBatches + 1) * batchLines; inflight > bound {
		t.Fatalf("%d lines in flight under a stalled consumer, bound is %d", inflight, bound)
	}

	go func() {
		for range m.Results() {
		}
	}()
	total := <-submitted
	m.Close()
	for m.Stats().LinesScanned < total {
		time.Sleep(time.Millisecond)
	}
	if got := m.Accepted(); got != uint64(total) {
		t.Fatalf("Accepted = %d, submitted %d", got, total)
	}
}
