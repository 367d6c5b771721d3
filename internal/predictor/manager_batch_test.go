package predictor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// Lifecycle and race coverage for the batch submission path. The serve-level
// equivalence suite proves the daemon's batches reproduce a sequential
// predictor; these tests pin the Manager-level contract: outputs and Stats
// equal to a sequential Predictor's, whole-batch ErrClosed semantics,
// parse-error accounting, and freedom from races against Close, Flush and
// state hot-swap.

// phantomModel is a one-chain model whose chain uses phrase ID 0 in its
// middle: a line whose message is never scanned must not reach the parse as
// a phrase-0 token and complete the chain.
func phantomModel(t *testing.T) *Model {
	t.Helper()
	model, err := Compile([]core.FailureChain{{Name: "FC0", Phrases: []core.PhraseID{1, 0, 3, 2}}},
		[]core.Template{
			{ID: 0, Pattern: "alpha *", Class: core.Unknown},
			{ID: 1, Pattern: "beta *", Class: core.Erroneous},
			{ID: 2, Pattern: "node down *", Class: core.Failed},
			{ID: 3, Pattern: "gamma *", Class: core.Unknown},
		}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// phantomLines runs the chain to completion on n2, and on n1 with an empty
// message body ("<ts> <node> ") where phrase 0 should be: n2 is predicted
// and fails, n1 is neither.
var phantomLines = []string{
	"2015-03-14T04:58:57.000Z n1 beta one",
	"2015-03-14T04:58:57.000Z n2 beta one",
	"2015-03-14T04:58:58.000Z n1 ",
	"2015-03-14T04:58:58.000Z n2 alpha two",
	"2015-03-14T04:58:59.000Z n1 gamma three",
	"2015-03-14T04:58:59.000Z n2 gamma three",
	"2015-03-14T04:59:30.000Z n2 node down now",
}

// outputKey canonicalizes a prediction or an observed failure.
func outputKey(out Output) string {
	if p := out.Prediction; p != nil {
		return predKey(p.Node, p.ChainName, p.MatchedAt)
	}
	if f := out.Failure; f != nil {
		return fmt.Sprintf("failed/%s/%d", f.Node, f.Time.UnixMilli())
	}
	return ""
}

// TestManagerBatchMatchesPerLine: a stream handed to the manager one line at
// a time (ProcessLine, a batch of one) and in batches of 7 and 256 yields
// exactly the predictions, failures and Stats of a sequential Predictor over
// the same lines, and malformed lines are counted without poisoning the rest
// of their batch.
func TestManagerBatchMatchesPerLine(t *testing.T) {
	log := genLog(t, 9, 8, 4)
	xc30, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		model *Model
		lines []string
	}{
		{"xc30", xc30, log.Lines()},
		{"phantom-phrase-0", phantomModel(t), phantomLines},
	}
	for _, row := range rows {
		ref := row.model.NewPredictor()
		var want []string
		for _, line := range row.lines {
			out, err := ref.ProcessLine(line)
			if err != nil {
				t.Fatal(err)
			}
			if k := outputKey(out); k != "" {
				want = append(want, k)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the sequential reference produced no outputs; the comparison would be vacuous", row.name)
		}
		sort.Strings(want)

		for _, chunk := range []int{1, 7, 256} {
			m := row.model.NewManager(3)
			var got []string
			done := make(chan struct{})
			go func() {
				defer close(done)
				for out := range m.Results() {
					if k := outputKey(out); k != "" {
						got = append(got, k)
					}
				}
			}()
			var parseErrs int
			for i := 0; i < len(row.lines); i += chunk {
				// A malformed line rides along once per chunk; it must be
				// skipped and counted, not dropped silently or fatal.
				batch := append(append([]string(nil), row.lines[i:min(i+chunk, len(row.lines))]...), "not a log line")
				if chunk == 1 {
					for _, line := range batch {
						if err := m.ProcessLine(line); err == ErrClosed {
							t.Fatal(err)
						} else if err != nil {
							parseErrs++
						}
					}
					continue
				}
				pe, err := m.ProcessLineBatch(batch)
				if err != nil {
					t.Fatal(err)
				}
				parseErrs += pe
				if pe, err := m.ProcessLineBatch(batch[:0]); pe != 0 || err != nil {
					t.Fatalf("empty batch = (%d, %v), want (0, nil)", pe, err)
				}
			}
			m.Close()
			<-done

			label := fmt.Sprintf("%s chunk=%d", row.name, chunk)
			if wantBad := (len(row.lines) + chunk - 1) / chunk; parseErrs != wantBad {
				t.Fatalf("%s: %d parse errors, want %d", label, parseErrs, wantBad)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: outputs %v, sequential predictor %v", label, got, want)
			}
			if st := m.Stats(); st != ref.Stats() {
				t.Fatalf("%s: stats diverge: %+v vs %+v", label, st, ref.Stats())
			}
			if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() {
				t.Fatalf("%s: LinesScanned %d != Accepted %d", label, st.LinesScanned, m.Accepted())
			}
		}
	}
}

// TestManagerBatchErrClosed: a closed manager refuses the entire batch —
// no partial shard delivery, no accepted-count advance.
func TestManagerBatchErrClosed(t *testing.T) {
	log := genLog(t, 11, 4, 2)
	m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	lines := log.Lines()
	if _, err := m.ProcessLineBatch(lines[:8]); err != nil {
		t.Fatal(err)
	}
	before := m.Accepted()
	m.Close()
	for range m.Results() {
	}
	pe, err := m.ProcessLineBatch(lines[8:24])
	if err != ErrClosed {
		t.Fatalf("ProcessLineBatch after Close = %v, want ErrClosed", err)
	}
	if pe != 0 {
		t.Fatalf("well-formed refused batch reported %d parse errors", pe)
	}
	if m.Accepted() != before {
		t.Fatalf("refused batch advanced Accepted from %d to %d", before, m.Accepted())
	}
	if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() {
		t.Fatalf("after close: LinesScanned %d != Accepted %d", st.LinesScanned, m.Accepted())
	}
}

// TestManagerConcurrentBatchClose hammers ProcessLineBatch from several
// goroutines while Close races in. Every batch either lands whole (counted
// by the sender) or is refused whole with ErrClosed; after the drain the
// processed count reconciles exactly with the accepted count.
func TestManagerConcurrentBatchClose(t *testing.T) {
	log := genLog(t, 23, 10, 4)
	lines := log.Lines()
	for trial := 0; trial < 4; trial++ {
		m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, done := drainManager(m)

		var sent atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := g * 16; i < len(lines); i += 4 * 16 {
					end := i + 16
					if end > len(lines) {
						end = len(lines)
					}
					pe, err := m.ProcessLineBatch(lines[i:end])
					if err != nil {
						if err == ErrClosed {
							return
						}
						t.Errorf("ProcessLineBatch: %v", err)
						return
					}
					sent.Add(uint64(end - i - pe))
					if i%128 == 0 {
						m.Stats()
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			m.Close()
			m.Close()
		}()
		close(start)
		wg.Wait()
		<-done

		if st := m.Stats(); uint64(st.LinesScanned) != m.Accepted() || m.Accepted() != sent.Load() {
			t.Fatalf("trial %d: LinesScanned %d, Accepted %d, sent %d — must all agree after drain",
				trial, st.LinesScanned, m.Accepted(), sent.Load())
		}
	}
}

// TestManagerConcurrentBatchFlushAndSwap drives batch submitters against the
// two quiescing operations the serve daemon performs live: Flush barriers and
// ExportState/AdoptState hot-swaps. Nothing may race or deadlock, and the
// manager must keep accepting batches after every swap. Exact sent/processed
// reconciliation is NOT asserted across the race phase: AdoptState restores
// the counters captured at export time, so increments landing in the gap are
// overwritten by design — instead the quiet manager is checked for exact
// accounting on a final batch after the swaps settle.
func TestManagerConcurrentBatchFlushAndSwap(t *testing.T) {
	log := genLog(t, 29, 8, 3)
	lines := log.Lines()
	m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, done := drainManager(m)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := g * 8; i < len(lines); i += 3 * 8 {
				end := i + 8
				if end > len(lines) {
					end = len(lines)
				}
				if _, err := m.ProcessLineBatch(lines[i:end]); err != nil {
					t.Errorf("ProcessLineBatch: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 8; i++ {
			if err := m.Flush(); err != nil {
				t.Errorf("Flush: %v", err)
				return
			}
			// After the barrier everything accepted so far is processed;
			// submitters keep racing, so only >= holds here.
			if st := m.Stats(); uint64(st.LinesScanned) > m.Accepted() {
				t.Errorf("flush %d: LinesScanned %d exceeds Accepted %d", i, st.LinesScanned, m.Accepted())
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 4; i++ {
			st, err := m.ExportState()
			if err != nil {
				t.Errorf("ExportState: %v", err)
				return
			}
			if _, err := m.AdoptState(st); err != nil {
				t.Errorf("AdoptState: %v", err)
				return
			}
		}
	}()
	close(start)
	wg.Wait()

	// Swaps settled, stream quiet: the manager must still accept batches and
	// account for them exactly.
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	base := m.Stats().LinesScanned
	tail := lines[:24]
	pe, err := m.ProcessLineBatch(tail)
	if err != nil {
		t.Fatal(err)
	}
	if pe != 0 {
		t.Fatalf("post-swap batch reported %d parse errors on well-formed lines", pe)
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.LinesScanned != base+len(tail) {
		t.Fatalf("post-swap batch: LinesScanned %d, want %d", st.LinesScanned, base+len(tail))
	}
	m.Close()
	<-done
}
