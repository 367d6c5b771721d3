package pipeline

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/recycle"
)

func numbered(prefix string, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%s-%04d", prefix, i)
	}
	return lines
}

// TestBlockSplitsOversizedChunk: a Block chunk many times the queue's size is
// accepted whole — fed through in queue-sized pieces as the pump frees room —
// in order, without deadlock, and the queue never holds more than its bound.
func TestBlockSplitsOversizedChunk(t *testing.T) {
	sink := &recordSink{}
	p := New(Config{QueueSize: 8, BatchMax: 3, Overflow: Block}, sink)
	maxDepth := 0
	p.TestHookDelay = func() {
		if d := p.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	lines := numbered("l", 100)
	done := make(chan int, 1)
	go func() { done <- p.IngestBatch(lines) }()
	select {
	case n := <-done:
		if n != len(lines) {
			t.Fatalf("Block accepted %d of %d", n, len(lines))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("IngestBatch of a chunk larger than the queue deadlocked")
	}
	p.EndProduce()
	drainAll(p)
	if fmt.Sprint(sink.lines) != fmt.Sprint(lines) {
		t.Fatalf("lines reordered or lost: %v", sink.lines)
	}
	if maxDepth > p.Capacity() {
		t.Fatalf("queue held %d lines, bound is %d", maxDepth, p.Capacity())
	}
	if p.Accepted() != 100 || p.Dropped() != 0 {
		t.Fatalf("Accepted=%d Dropped=%d", p.Accepted(), p.Dropped())
	}
}

// TestShedAcceptsPrefix: with the pump held, Shed takes the prefix of a chunk
// that fits and counts the rest, so accepted + dropped == sent per line, and
// what was accepted is exactly what reaches the sink.
func TestShedAcceptsPrefix(t *testing.T) {
	sink := &recordSink{}
	p := New(Config{QueueSize: 10, BatchMax: 4, Overflow: Shed}, sink)
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p.TestHookDelay = func() {
		once.Do(func() { close(held); <-release })
	}
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	if !p.Ingest("first") { // the pump takes it and stalls in the hook
		t.Fatal("first line shed from an empty queue")
	}
	<-held
	if d := p.Depth(); d != 0 {
		t.Fatalf("Depth = %d with the pump holding the only line", d)
	}
	a, b := numbered("a", 7), numbered("b", 7)
	if n := p.IngestBatch(a); n != 7 {
		t.Fatalf("chunk a: accepted %d, want 7", n)
	}
	if d := p.Depth(); d != 7 {
		t.Fatalf("Depth = %d, want 7: it counts lines, not chunks", d)
	}
	if n := p.IngestBatch(b); n != 3 { // 3 slots left
		t.Fatalf("chunk b: accepted %d, want the 3 that fit", n)
	}
	if p.Ingest("late") || p.IngestBatch(numbered("c", 5)) != 0 {
		t.Fatal("a full Shed queue accepted lines")
	}
	if d := p.Depth(); d != p.Capacity() {
		t.Fatalf("Depth = %d, Capacity = %d", d, p.Capacity())
	}
	const sent = 1 + 7 + 7 + 1 + 5
	if p.Accepted() != 11 || p.Accepted()+p.Dropped() != sent {
		t.Fatalf("Accepted=%d Dropped=%d, sent %d", p.Accepted(), p.Dropped(), sent)
	}
	close(release)
	p.EndProduce()
	drainAll(p)
	want := append(append([]string{"first"}, a...), b[:3]...)
	if fmt.Sprint(sink.lines) != fmt.Sprint(want) {
		t.Fatalf("sink got %v, want %v", sink.lines, want)
	}
}

// TestInterleavedChunkProvenance: plain and forwarded chunks queued in turn
// reach their two sinks in arrival order, every sink batch is of one
// provenance, and a provenance flip leaves the other lane's lines queued for
// the next batch rather than dropping or reordering them.
func TestInterleavedChunkProvenance(t *testing.T) {
	for _, batchMax := range []int{1, 5, 64} {
		local, fwd := &recordSink{}, &recordSink{}
		p := New(Config{QueueSize: 256, BatchMax: batchMax, Forward: fwd}, local)
		if !p.BeginProduce() {
			t.Fatal("BeginProduce refused")
		}
		var wantLocal, wantFwd []string
		for i := 0; i < 12; i++ {
			chunk := numbered(fmt.Sprintf("c%02d", i), 1+i%7)
			if i%2 == 0 {
				p.IngestBatch(chunk)
				wantLocal = append(wantLocal, chunk...)
			} else {
				p.IngestForwardedBatch(chunk)
				wantFwd = append(wantFwd, chunk...)
			}
		}
		p.EndProduce()
		p.Start() // preloaded: the pump sees maximal runs, so flips do the cutting
		drainAll(p)
		if fmt.Sprint(local.lines) != fmt.Sprint(wantLocal) || fmt.Sprint(fwd.lines) != fmt.Sprint(wantFwd) {
			t.Fatalf("BatchMax %d: local %v\nfwd %v", batchMax, local.lines, fwd.lines)
		}
		if p.Forwarded() != int64(len(wantFwd)) {
			t.Fatalf("BatchMax %d: Forwarded = %d, want %d", batchMax, p.Forwarded(), len(wantFwd))
		}
		for _, b := range append(local.batches, fwd.batches...) {
			if len(b) == 0 || len(b) > batchMax {
				t.Fatalf("BatchMax %d: batch of %d lines", batchMax, len(b))
			}
		}
	}
}

// TestCloseQueueLosesNothing: producers on several goroutines, then the
// daemon's drain order — StartDrain, ProducersIdle, CloseQueue — delivers
// every accepted line, and each producer's lines stay in its order.
func TestCloseQueueLosesNothing(t *testing.T) {
	sink := &recordSink{}
	p := New(Config{QueueSize: 32, BatchMax: 16, BatchMaxBytes: 100}, sink)
	p.Start()
	const producers, chunks, per = 4, 50, 9
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		if !p.BeginProduce() {
			t.Fatal("BeginProduce refused")
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer p.EndProduce()
			for c := 0; c < chunks; c++ {
				lines := make([]string, per)
				for i := range lines {
					lines[i] = fmt.Sprintf("p%d-%05d", g, c*per+i)
				}
				if c%2 == 0 {
					p.IngestBatch(lines)
				} else {
					for _, line := range lines {
						p.Ingest(line)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	drainAll(p)
	if p.BeginProduce() {
		t.Fatal("BeginProduce succeeded after StartDrain")
	}
	if got := len(sink.lines); got != producers*chunks*per || p.Accepted() != int64(got) {
		t.Fatalf("sink got %d lines, Accepted %d, sent %d", got, p.Accepted(), producers*chunks*per)
	}
	last := map[string]string{}
	for _, line := range sink.lines {
		g := line[:2]
		if line <= last[g] {
			t.Fatalf("producer %s out of order: %s after %s", g, line, last[g])
		}
		last[g] = line
	}
	for _, b := range sink.batches {
		bytes := 0
		for _, line := range b[:len(b)-1] {
			bytes += len(line)
		}
		if bytes >= 100 {
			t.Fatalf("batch of %d lines kept growing past BatchMaxBytes", len(b))
		}
	}
}

// TestPumpCutsWhenQueueEmpties: a batch is cut when the queue runs empty.
// With room for 256 lines and a producer still registered, a lone line
// reaches the Sink on its own, without waiting for a further line, and the
// next chunk goes out as its own batch.
func TestPumpCutsWhenQueueEmpties(t *testing.T) {
	batches := make(chan []string, 8)
	sink := sinkFunc(func(b []string) { batches <- cloneLines(b) })
	p := New(Config{QueueSize: 1024, BatchMax: 256}, sink)
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	want := func(w string) {
		t.Helper()
		select {
		case b := <-batches:
			if fmt.Sprint(b) != w {
				t.Fatalf("batch %v, want %s", b, w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no batch reached the Sink, want %s", w)
		}
	}
	p.Ingest("lone")
	want("[lone]")
	p.IngestBatch([]string{"a", "b", "c"})
	want("[a b c]")
	p.EndProduce()
	drainAll(p)
	if len(batches) != 0 {
		t.Fatalf("unexpected batch after drain: %v", <-batches)
	}
}

type sinkFunc func(batch []string)

func (f sinkFunc) ProcessBatch(batch []string) { f(batch) }

// TestIngestDoesNotAllocate: Ingest enqueues a one-line chunk with no
// allocation, and a chunk costs none either.
func TestIngestDoesNotAllocate(t *testing.T) {
	p := New(Config{QueueSize: 1 << 16, BatchMax: 256}, sinkFunc(func([]string) {}))
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	line := "2020-01-01T00:00:00.000Z c0-0c0s0n0 benign"
	chunk := numbered("chunk", 100)
	if a := testing.AllocsPerRun(1000, func() { p.Ingest(line) }); a != 0 {
		t.Errorf("Ingest: %.1f allocs per line", a)
	}
	if a := testing.AllocsPerRun(100, func() { p.IngestBatch(chunk) }); a != 0 {
		t.Errorf("IngestBatch: %.1f allocs per chunk", a)
	}
	if a := testing.AllocsPerRun(100, func() { p.IngestForwardedBatch(chunk) }); a != 0 {
		t.Errorf("IngestForwardedBatch: %.1f allocs per chunk", a)
	}
	p.EndProduce()
	drainAll(p)
}

// TestSinkLinesLiveUntilReturn: accepted lines are the pipeline's copies —
// the caller's strings are untouched — and their storage is released once
// the batch holding them has returned from the Sink: a Sink that keeps the
// views (this one, deliberately) reads poison after the drain.
func TestSinkLinesLiveUntilReturn(t *testing.T) {
	recycle.PoisonForTest(t.Cleanup)
	var kept, seen []string
	sink := sinkFunc(func(b []string) {
		kept = append(kept, b...)
		seen = append(seen, cloneLines(b)...)
	})
	p := New(Config{QueueSize: 64, BatchMax: 4}, sink)
	p.Start()
	if !p.BeginProduce() {
		t.Fatal("BeginProduce refused")
	}
	lines := append(numbered("x", 10), "", "y") // an empty line has no bytes to copy
	if n := p.IngestBatch(lines); n != len(lines) {
		t.Fatalf("accepted %d of %d", n, len(lines))
	}
	p.EndProduce()
	drainAll(p)
	if fmt.Sprint(seen) != fmt.Sprint(lines) || fmt.Sprint(lines) != fmt.Sprint(append(numbered("x", 10), "", "y")) {
		t.Fatalf("sink saw %v while the batch was live; input now %v", seen, lines)
	}
	for _, line := range kept {
		if line != strings.Repeat(string(rune(recycle.PoisonByte)), len(line)) {
			t.Fatalf("line %q kept past its batch still reads as a line: its storage was never released", line)
		}
	}
}
