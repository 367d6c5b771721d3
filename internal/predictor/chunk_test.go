package predictor

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/loggen"
	"repro/internal/recycle"
)

// The serve layer hands the predictor lines that are views of storage it
// recycles — the framer's read buffer, the pipeline's slabs — valid only
// until the call returns, and the manager carries each line's node to its
// worker in a batch buffer that it recycles in turn. Anything that outlives
// the batch — a driver's map key, a prediction's node — must be a copy: an
// alias does not merely pin memory, it reads whatever line the storage holds
// next. The tests cut lines out of one chunk string and check that nothing
// kept points into it, with recycle.TestHookPoison on so that an alias of
// the manager's own batch storage reads as poison. And a submitter that
// outruns the scan workers must be stopped after a few batches, or the
// backlog's batch storage grows without bound.

// inside reports whether s points into chunk's bytes.
func inside(s, chunk string) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	base := uintptr(unsafe.Pointer(unsafe.StringData(chunk)))
	return p >= base && p < base+uintptr(len(chunk))
}

// chunkLines renders one failing node's chain-related lines for `nodes`
// distinct nodes as a single string and returns it with its lines cut out as
// substrings — what the transport's framer produces.
func chunkLines(t *testing.T, nodes int) (log *loggen.Log, chunk string, lines []string) {
	t.Helper()
	log = genLog(t, 5, 2, 2)
	p := newPredictor(t, log, Options{})
	var tmpl []string // "<ts> \x00 <msg>" of every line of the first failing node that tokenizes
	victim := ""
	for _, line := range log.Lines() {
		tok, ok, err := p.Scanner().ScanLine(line)
		if err != nil || !ok || (victim != "" && tok.Node != victim) {
			continue
		}
		victim = tok.Node
		tmpl = append(tmpl, strings.Replace(line, " "+victim+" ", " \x00 ", 1))
	}
	if len(tmpl) < 4 {
		t.Fatalf("only %d chain-related lines to build the chunk from", len(tmpl))
	}
	var b strings.Builder
	for _, l := range tmpl { // time-major, so every node's lines stay in order
		for n := 0; n < nodes; n++ {
			b.WriteString(strings.Replace(l, "\x00", fmt.Sprintf("c%d-0c1s%dn%d", n/64, n/4%16, n%4), 1))
			b.WriteByte('\n')
		}
	}
	chunk = b.String()
	for rest := chunk; rest != ""; {
		i := strings.IndexByte(rest, '\n')
		lines = append(lines, rest[:i])
		rest = rest[i+1:]
	}
	return log, chunk, lines
}

func checkNoAlias(t *testing.T, p *Predictor, chunk string) {
	t.Helper()
	for key, d := range p.drivers {
		if inside(key, chunk) || inside(d.Node(), chunk) {
			t.Fatalf("driver key %q aliases the ingest chunk", key)
		}
	}
}

// TestDriverKeysDoNotAliasChunk: 1 000 nodes' lines, all cut from one chunk,
// leave no driver key, prediction node or failure node pointing into it —
// through the bare Predictor and through the Manager's batch path.
func TestDriverKeysDoNotAliasChunk(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	const nodes = 1000
	log, chunk, lines := chunkLines(t, nodes)

	p := newPredictor(t, log, Options{})
	outputs := 0
	for _, line := range lines {
		out, err := p.ProcessLine(line)
		if err != nil {
			t.Fatal(err)
		}
		if out.Prediction != nil {
			outputs++
			if inside(out.Prediction.Node, chunk) {
				t.Fatalf("prediction node %q aliases the ingest chunk", out.Prediction.Node)
			}
		}
		if out.Failure != nil {
			outputs++
			if inside(out.Failure.Node, chunk) {
				t.Fatalf("failure node %q aliases the ingest chunk", out.Failure.Node)
			}
		}
	}
	if len(p.drivers) != nodes || outputs < nodes {
		t.Fatalf("%d drivers, %d outputs for %d nodes: the chunk did not exercise the predictor", len(p.drivers), outputs, nodes)
	}
	checkNoAlias(t, p, chunk)

	m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() {
		n := 0
		for out := range m.Results() {
			if out.Prediction != nil && inside(out.Prediction.Node, chunk) ||
				out.Failure != nil && inside(out.Failure.Node, chunk) {
				t.Errorf("manager output aliases the ingest chunk: %+v", out)
			}
			n++
		}
		done <- n
	}()
	for i := 0; i < len(lines); i += 256 {
		if _, err := m.ProcessLineBatch(lines[i:min(i+256, len(lines))]); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	if n := <-done; n != outputs {
		t.Fatalf("manager emitted %d outputs, the bare predictor %d", n, outputs)
	}
	drivers := 0
	for _, w := range m.workers {
		checkNoAlias(t, w.pred, chunk)
		drivers += len(w.pred.drivers)
	}
	if drivers != nodes {
		t.Fatalf("%d drivers across workers, want %d", drivers, nodes)
	}
}

// TestManagerBoundsInflightBatches: with nobody reading Results the workers
// stall, and the submitter is stopped once maxInflightBatches batches wait
// per worker — the lines accepted but not yet scanned stay within that window
// (plus the batch being scattered) instead of filling a 512-batch inbox.
func TestManagerBoundsInflightBatches(t *testing.T) {
	log, _, lines := chunkLines(t, 64) // every line tokenizes: plenty of outputs to stall on
	const workers, batchLines = 2, 256
	m, err := NewManager(log.Dialect.Chains(), log.Dialect.Inventory(), Options{}, workers)
	if err != nil {
		t.Fatal(err)
	}
	submitted := make(chan int, 1)
	go func() {
		n := 0
		for pass := 0; pass < 200; pass++ { // far more than any window holds
			for i := 0; i+batchLines <= len(lines); i += batchLines {
				if _, err := m.ProcessLineBatch(lines[i : i+batchLines]); err != nil {
					submitted <- n
					return
				}
				n += batchLines
			}
		}
		submitted <- n
	}()

	// The submitter has stalled once Accepted stops moving.
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

	// Unstall: everything accepted drains and is accounted for.
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
