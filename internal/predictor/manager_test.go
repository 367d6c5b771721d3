package predictor

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/loggen"
	"repro/internal/recycle"
)

// predKey canonicalizes a prediction for set comparison.
func predKey(node, chain string, at time.Time) string {
	return fmt.Sprintf("%s/%s/%d", node, chain, at.UnixMilli())
}

func TestManagerMatchesSerialPredictor(t *testing.T) {
	log := genLog(t, 42, 12, 8)
	chains := log.Dialect.Chains()
	inv := log.Dialect.Inventory()

	// Serial reference.
	serial := newPredictor(t, log, Options{})
	serialPreds, serialFails := runLog(serial, log)

	for _, workers := range []int{1, 3, 8} {
		m, err := NewManager(chains, inv, Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		var fails int
		done := make(chan struct{})
		go func() {
			defer close(done)
			for out := range m.Results() {
				if out.Prediction != nil {
					got = append(got, predKey(out.Prediction.Node, out.Prediction.ChainName, out.Prediction.MatchedAt))
				}
				if out.Failure != nil {
					fails++
				}
			}
		}()
		for _, e := range log.Events {
			if err := m.ProcessLine(e.Line()); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		<-done

		want := make([]string, 0, len(serialPreds))
		for _, pr := range serialPreds {
			want = append(want, predKey(pr.Node, pr.ChainName, pr.MatchedAt))
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d predictions, serial %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: prediction %d differs: %s vs %s", workers, i, got[i], want[i])
			}
		}
		if fails != len(serialFails) {
			t.Fatalf("workers=%d: %d failures, serial %d", workers, fails, len(serialFails))
		}
		st := m.Stats()
		sst := serial.Stats()
		if st.LinesScanned != sst.LinesScanned || st.Tokens != sst.Tokens ||
			st.Parser.Matches != sst.Parser.Matches {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, st, sst)
		}
	}
}

// TestManagersShareOneModel: managers built over one compiled model run it in
// every worker, and their workers scan and parse concurrently over it — under
// -race this checks the model really is read-only — each reaching exactly
// the serial predictor's answer.
func TestManagersShareOneModel(t *testing.T) {
	log := genLog(t, 42, 12, 8)
	model, err := Compile(log.Dialect.Chains(), log.Dialect.Inventory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	serialPreds, serialFails := runLog(model.NewPredictor(), log)
	var want []string
	for _, pr := range serialPreds {
		want = append(want, predKey(pr.Node, pr.ChainName, pr.MatchedAt))
	}
	sort.Strings(want)

	lines := log.Lines()
	managers := make([]*Manager, 3)
	for i := range managers {
		managers[i] = model.NewManager(2)
		if managers[i].Model() != model {
			t.Fatalf("manager %d runs another model", i)
		}
		for wi, w := range managers[i].workers {
			if w.pred.model != model {
				t.Fatalf("manager %d worker %d compiled its own model", i, wi)
			}
		}
	}
	var wg sync.WaitGroup
	for i, m := range managers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{})
			var got []string
			fails := 0
			go func() {
				defer close(done)
				for out := range m.Results() {
					if p := out.Prediction; p != nil {
						got = append(got, predKey(p.Node, p.ChainName, p.MatchedAt))
					}
					if out.Failure != nil {
						fails++
					}
				}
			}()
			for start := 0; start < len(lines); start += 64 {
				if _, err := m.ProcessLineBatch(lines[start:min(start+64, len(lines))]); err != nil {
					t.Errorf("manager %d: %v", i, err)
				}
			}
			m.Close()
			<-done
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(want) || fails != len(serialFails) {
				t.Errorf("manager %d: %d predictions, %d failures; serial %d, %d", i, len(got), fails, len(want), len(serialFails))
			}
		}()
	}
	wg.Wait()
}

func TestManagerProcessLine(t *testing.T) {
	log := genLog(t, 7, 6, 3)
	m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	preds := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for out := range m.Results() {
			if out.Prediction != nil {
				preds++
			}
		}
	}()
	for _, line := range log.Lines() {
		if err := m.ProcessLine(line); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	<-done
	if preds == 0 {
		t.Fatal("no predictions through line interface")
	}
	if st := m.Stats(); st.LinesScanned != len(log.Events) {
		t.Fatalf("LinesScanned = %d, want %d", st.LinesScanned, len(log.Events))
	}
}

func TestManagerBadLine(t *testing.T) {
	m, err := NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.ProcessLine("not a log line"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestManagerDefaultsWorkers(t *testing.T) {
	m, err := NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.workers) == 0 {
		t.Fatal("no workers with default count")
	}
	m.Close()
	for range m.Results() {
	}
}

func TestManagerCloseIdempotent(t *testing.T) {
	m, err := NewManager(loggen.DialectXC30.Chains(), loggen.DialectXC30.Inventory(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // must not panic on double-close of worker channels
	for range m.Results() {
	}
	m.Close() // and still a no-op after the drain completes
	if err := m.ProcessLine("2015-03-14T04:58:57.640Z c0-0c0s0n0 hello"); err != ErrClosed {
		t.Fatalf("ProcessLine after Close: err = %v, want ErrClosed", err)
	}
}

// TestManagerConcurrentProcessClose hammers ProcessLine/Stats
// from many goroutines while Close races in — run under -race this covers the
// shutdown path of the serve daemon. Lines routed after Close must fail with
// ErrClosed instead of panicking on a closed channel; everything accepted
// before Close must drain to Results.
func TestManagerConcurrentProcessClose(t *testing.T) {
	log := genLog(t, 21, 10, 4)
	lines := log.Lines()
	for trial := 0; trial < 4; trial++ {
		m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 3)
		if err != nil {
			t.Fatal(err)
		}
		drained := make(chan int)
		go func() {
			n := 0
			for range m.Results() {
				n++
			}
			drained <- n
		}()

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := g; i < len(lines); i += 4 {
					if err := m.ProcessLine(lines[i]); err != nil {
						if err == ErrClosed {
							return
						}
						t.Errorf("ProcessLine: %v", err)
						return
					}
					if i%64 == 0 {
						m.Stats() // live stats must be race-free
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Close partway through the stream, concurrently with senders.
			m.Close()
			m.Close()
		}()
		close(start)
		wg.Wait()
		<-drained
		m.Stats() // and after the drain too
	}
}

func BenchmarkManagerThroughput(b *testing.B) {
	log, err := loggen.Generate(loggen.Config{
		Dialect: loggen.DialectXC30, Seed: 4, Duration: 2 * time.Hour,
		Nodes: 32, Failures: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	lines := log.Lines()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, workers)
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for range m.Results() {
					}
				}()
				for start := 0; start < len(lines); start += 256 {
					if _, err := m.ProcessLineBatch(lines[start:min(start+256, len(lines))]); err != nil {
						b.Fatal(err)
					}
				}
				m.Close()
				<-done
			}
			b.SetBytes(int64(len(lines)))
		})
	}
}

// eventKey canonicalizes an observer event for comparison.
func eventKey(e core.Event) string {
	return fmt.Sprintf("%d %s %d %s", e.Kind, e.Node, e.Time.UnixNano(), e.Chain)
}

// TestManagerObserverOrder pins what the arbiter relies on: per node, the
// observer sees line i's heartbeat, then the outputs line i produced, then
// line i+1's heartbeat — one heartbeat per parseable line, all of a node's
// events from one worker, all of them delivered by the time Flush returns —
// at 1, 2 and 4 workers, over ProcessLineBatch and over ProcessScanned with
// the discarded lines kept as NoPhrase tokens (which counts them as
// ProcessLineBatch does). A nil observer clears the hook.
func TestManagerObserverOrder(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	log := genLog(t, 13, 5, 2)
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

	// The reference: a sequential predictor, each parseable line's beat
	// followed by what the line produced.
	want := map[string][]string{}
	beats, outputs := 0, 0
	ref := model.NewPredictor()
	for _, line := range lines {
		ts, node, _, err := lexgen.ParseLine(line)
		if err != nil {
			continue
		}
		beats++
		want[node] = append(want[node], eventKey(core.Event{Kind: core.EventBeat, Node: node, Time: ts}))
		out, err := ref.ProcessLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if p := out.Prediction; p != nil {
			outputs++
			want[node] = append(want[node], eventKey(core.Event{Kind: core.EventPrediction, Node: node, Time: p.MatchedAt, Chain: p.ChainName}))
		}
		if f := out.Failure; f != nil {
			outputs++
			want[node] = append(want[node], eventKey(core.Event{Kind: core.EventFailure, Node: node, Time: f.Time}))
		}
	}
	if len(want) != 5 || outputs < 4 {
		t.Fatalf("%d nodes, %d outputs: the stream does not exercise the observer", len(want), outputs)
	}

	for _, workers := range []int{1, 2, 4} {
		var lineStats Stats
		for _, path := range []string{"lines", "scanned"} {
			m := model.NewManager(workers)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for out := range m.Results() {
					out.Ack()
				}
			}()
			var mu sync.Mutex
			got := map[string][]string{}
			owner := map[string]int{}
			calls := 0
			m.SetObserver(func(w int, evs []core.Event) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				for _, e := range evs {
					// e.Node is a view of the batch's storage, valid only
					// until the observer returns: the maps keep a copy.
					node := strings.Clone(e.Node)
					if o, ok := owner[node]; ok && o != w {
						t.Errorf("workers=%d %s: node %s reported by workers %d and %d", workers, path, node, o, w)
					}
					owner[node] = w
					got[node] = append(got[node], eventKey(e))
				}
			})
			submit := func(lines []string) {
				for i := 0; i < len(lines); i += 64 {
					chunk := lines[i:min(i+64, len(lines))]
					var err error
					if path == "lines" {
						_, err = m.ProcessLineBatch(chunk)
					} else {
						_, err = m.ProcessScanned(scanLines(model, chunk, true))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			submit(lines)

			mu.Lock()
			n := 0
			for node, w := range want {
				n += len(got[node])
				if fmt.Sprint(got[node]) != fmt.Sprint(w) {
					t.Errorf("workers=%d %s: node %s observed\n%v\nwant\n%v", workers, path, node, got[node], w)
				}
			}
			if n != beats+outputs || len(got) != len(want) {
				t.Errorf("workers=%d %s: %d events for %d nodes, want %d beats + %d outputs for %d", workers, path, n, len(got), beats, outputs, len(want))
			}
			mu.Unlock()
			if path == "lines" {
				lineStats = m.Stats()
			} else if st := m.Stats(); st != lineStats {
				t.Errorf("workers=%d: ProcessScanned stats %+v, ProcessLineBatch %+v", workers, st, lineStats)
			}

			m.SetObserver(nil)
			before := calls
			submit(lines[:200])
			if calls != before {
				t.Errorf("workers=%d %s: a cleared observer was called %d times", workers, path, calls-before)
			}
			m.Close()
			<-done
		}
	}
}
