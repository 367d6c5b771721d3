package pipeline

import (
	"fmt"
	"strings"
	"testing"
)

// recordSink tags everything it sees so tests can check which sink got
// which lines and how batches were cut.
type recordSink struct {
	tag     string
	lines   []string
	batches [][]string
}

func (s *recordSink) ProcessBatch(batch []string) {
	batch = cloneLines(batch)
	s.batches = append(s.batches, batch)
	s.lines = append(s.lines, batch...)
}

// cloneLines copies a Sink batch: its lines are views of the pipeline's
// storage, valid only until ProcessBatch returns.
func cloneLines(batch []string) []string {
	out := make([]string, len(batch))
	for i, line := range batch {
		out[i] = strings.Clone(line)
	}
	return out
}

func drainAll(p *Pipeline) {
	p.StartDrain()
	<-p.ProducersIdle()
	p.CloseQueue()
	<-p.Done()
}

// TestForwardedLineRouting: with one-line batches the pump sends local lines
// to the primary sink and forwarded lines to the forward sink.
func TestForwardedLineRouting(t *testing.T) {
	local, fwd := &recordSink{tag: "local"}, &recordSink{tag: "fwd"}
	p := New(Config{QueueSize: 64, BatchMax: 1, Forward: fwd}, local)
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	p.Ingest("a")
	p.IngestForwardedBatch([]string{"b"})
	p.Ingest("c")
	p.IngestForwardedBatch([]string{"d"})
	p.EndProduce()
	drainAll(p)
	if fmt.Sprint(local.lines) != "[a c]" || fmt.Sprint(fwd.lines) != "[b d]" {
		t.Fatalf("local=%v fwd=%v", local.lines, fwd.lines)
	}
	if p.Forwarded() != 2 || p.Accepted() != 4 {
		t.Fatalf("Forwarded=%d Accepted=%d", p.Forwarded(), p.Accepted())
	}
}

// TestForwardedBatchUniformity: the batched pump cuts a batch when line
// provenance flips, so every Sink batch is all-local or all-forwarded and
// per-sink arrival order is preserved.
func TestForwardedBatchUniformity(t *testing.T) {
	local, fwd := &recordSink{tag: "local"}, &recordSink{tag: "fwd"}
	p := New(Config{QueueSize: 256, BatchMax: 64, Forward: fwd}, local)
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	var wantLocal, wantFwd []string
	for i := 0; i < 100; i++ {
		line := fmt.Sprintf("line-%03d", i)
		if i%3 == 0 {
			p.IngestForwardedBatch([]string{line})
			wantFwd = append(wantFwd, line)
		} else {
			p.Ingest(line)
			wantLocal = append(wantLocal, line)
		}
	}
	p.EndProduce()
	p.Start() // queue preloaded: the pump sees maximal runs, forcing flag cuts
	drainAll(p)
	if fmt.Sprint(local.lines) != fmt.Sprint(wantLocal) {
		t.Fatalf("local order broken:\n got %v\nwant %v", local.lines, wantLocal)
	}
	if fmt.Sprint(fwd.lines) != fmt.Sprint(wantFwd) {
		t.Fatalf("forwarded order broken:\n got %v\nwant %v", fwd.lines, wantFwd)
	}
	for _, b := range append(local.batches, fwd.batches...) {
		if len(b) == 0 {
			t.Fatal("empty batch dispatched")
		}
	}
}

// TestForwardNilRoutesToPrimary: without a Forward sink, forwarded lines fall
// through to the primary sink in arrival order — the single-daemon shape.
func TestForwardNilRoutesToPrimary(t *testing.T) {
	sink := &recordSink{}
	p := New(Config{QueueSize: 16, BatchMax: 4}, sink)
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	p.Ingest("a")
	p.IngestForwardedBatch([]string{"b"})
	p.Ingest("c")
	p.EndProduce()
	drainAll(p)
	if fmt.Sprint(sink.lines) != "[a b c]" {
		t.Fatalf("lines = %v", sink.lines)
	}
}
