// Package pipeline is the serving daemon's ingest spine: one bounded queue
// of raw log lines — filled a chunk (one socket read's worth of lines) at a
// time, emptied a batch at a time — feeding a single pump goroutine that cuts
// the stream into count/bytes-bounded batches and hands each batch to a
// Sink. The WAL-append-before-parse hot path lives behind the Sink, in the
// shard layer; this package knows nothing about journals, predictors or
// shards — only queue discipline (Block backpressure vs Shed drop-and-count),
// producer registration (so a drain can close the queue with no writer left
// behind), batch formation, and the storage the queued lines live in. It
// imports nothing but the standard library and internal/recycle.
package pipeline

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/recycle"
)

// Policy says what happens when the ingest queue is full.
type Policy string

const (
	// Block makes producers wait for queue space — backpressure propagates
	// to TCP senders through the kernel socket buffers. No accepted line is
	// ever dropped.
	Block Policy = "block"
	// Shed drops the line immediately and counts it in Dropped — bounded
	// latency at the cost of loss under overload.
	Shed Policy = "shed"
)

// Sink consumes drained lines, one pump batch at a time. ProcessBatch runs on
// the pump goroutine and must fully process its input before returning —
// "pump exited" means every accepted line reached the Sink. The slice and
// its lines are valid until ProcessBatch returns: the pump then reuses the
// slice for the next batch and the lines' bytes for new lines, so an
// implementation copies whatever it keeps.
type Sink interface {
	ProcessBatch(batch []string)
}

// entry is one queued line plus its provenance. fwd marks a line that already
// made one cross-daemon hop (it arrived over a peer-forwarded connection):
// the pump routes those to the forward sink, which must process them locally
// no matter what the placement table says — a line never travels twice.
// line is a view of the slab numbered slab.
type entry struct {
	line string
	fwd  bool
	slab uint32
}

// slab is one block of the pipeline's line storage. Accepted lines are
// copied into the newest slab in arrival order, so slabs empty in the order
// they filled: a slab is free once the batch holding its last line has been
// through the Sink.
type slab struct {
	buf []byte // len is the bytes handed out
	seq uint32 // numbers slabs in fill order (wrapping)
}

// slabSize is the size of one slab: half a socket read, so a Block queue's
// worth of ordinary log lines (4096 × ~100 bytes) spans a dozen slabs and
// the pool stays as small as the queue. A longer line gets a slab of its own,
// which is not kept for reuse.
const slabSize = 32 << 10

// maxFreeSlabs bounds the slabs kept for reuse when a backlog drains; the
// rest are left to the garbage collector. Steady ingest cycles one or two.
const maxFreeSlabs = 16

// Config parameterizes a Pipeline. Callers pass already-defaulted values
// (the serve layer owns configuration policy); New only fills in the byte cap
// and guards against outright invalid values.
type Config struct {
	// QueueSize bounds the ingest queue, in lines.
	QueueSize int
	// Overflow is the queue-full policy.
	Overflow Policy
	// BatchMax caps how many queued lines the pump coalesces into one Sink
	// batch. 1 makes every batch a single line.
	BatchMax int
	// BatchMaxBytes caps the byte size of one pump batch (default 256 KiB).
	BatchMaxBytes int
	// OnDrained, when non-nil, runs on the pump goroutine after the queue
	// has closed and the final batch has reached the Sink, before Done
	// closes — the hook the serve layer uses for the final checkpoint.
	OnDrained func()
	// Forward, when non-nil, receives lines enqueued via IngestForwardedBatch
	// (lines that already made their one cross-daemon hop). Nil routes them
	// to the primary Sink. Single-daemon deployments never set it.
	Forward Sink
}

// Pipeline is the bounded ingest queue plus its single-consumer pump.
// Construct with New, start the pump with Start, stop by StartDrain +
// CloseQueue once producers are gone.
type Pipeline struct {
	cfg     Config
	sink    Sink
	fwdSink Sink

	// The queue is a ring of lines under one mutex. A producer copies a whole
	// chunk of lines in per lock round-trip — each line's bytes into a slab,
	// its view into the ring — and the pump copies a whole batch of views
	// out, so the per-line cost on either side is a copy, not a
	// synchronization.
	mu     sync.Mutex
	ring   []entry
	head   int  // index of the oldest queued line
	n      int  // queued lines
	closed bool // CloseQueue was called
	// room is where Block producers wait for the pump to free space.
	room sync.Cond
	// pumpIdle is set by the pump before it sleeps on wake; the producer (or
	// CloseQueue) that clears it sends the one token that wakes it.
	pumpIdle bool
	wake     chan struct{}

	// Line storage, under mu: slabs holds every slab with a queued line or a
	// line of the batch being cut, oldest first, and the last is filled next;
	// freeSlabs are empty slabs kept for reuse; slabSeq is the newest slab's
	// number.
	slabs     []*slab
	freeSlabs []*slab
	slabSeq   uint32

	// The batch being cut. Owned by the pump goroutine. batchSlab is the slab
	// of its last line.
	batch      []string
	batchFwd   bool
	batchBytes int
	batchSlab  uint32

	accepted  atomic.Int64
	dropped   atomic.Int64
	forwarded atomic.Int64

	// prodMu serializes producer registration against drain start, so the
	// queue can be closed with no writer left behind.
	prodMu   sync.Mutex
	draining atomic.Bool
	prodWG   sync.WaitGroup

	done chan struct{}

	// TestHookDelay, when non-nil, runs after the pump dequeues the first line
	// of a batch and before it takes any more — tests use it to hold the
	// queue full and exercise the overflow policies deterministically. Set it
	// before Start.
	TestHookDelay func()
}

// New builds a Pipeline over the given sink. The pump does not run until
// Start.
func New(cfg Config, sink Sink) *Pipeline {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 1
	}
	if cfg.BatchMaxBytes <= 0 {
		cfg.BatchMaxBytes = 256 << 10
	}
	if cfg.Overflow == "" {
		cfg.Overflow = Block
	}
	fwd := cfg.Forward
	if fwd == nil {
		fwd = sink
	}
	p := &Pipeline{
		cfg:     cfg,
		sink:    sink,
		fwdSink: fwd,
		ring:    make([]entry, cfg.QueueSize),
		// Preallocated so that releasing slabs never grows it.
		freeSlabs: make([]*slab, 0, maxFreeSlabs),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	p.room.L = &p.mu
	return p
}

// Start launches the pump goroutine.
func (p *Pipeline) Start() { go p.pump() }

// BeginProduce registers a queue producer; it fails once draining so the
// queue can be closed safely. Callers must pair a true return with
// EndProduce.
func (p *Pipeline) BeginProduce() bool {
	p.prodMu.Lock()
	defer p.prodMu.Unlock()
	if p.draining.Load() {
		return false
	}
	p.prodWG.Add(1)
	return true
}

// EndProduce releases a producer registration.
func (p *Pipeline) EndProduce() { p.prodWG.Done() }

// Ingest enqueues one raw log line under the configured overflow policy.
// The caller must hold a producer registration. Reports whether the line
// was accepted. An accepted line is copied into the pipeline's own storage,
// so line need only be valid until Ingest returns.
//
//aarohi:hotpath
func (p *Pipeline) Ingest(line string) bool {
	one := [1]string{line}
	return p.enqueue(one[:], false) == 1
}

// IngestBatch enqueues a chunk of lines in order with one lock round-trip
// and returns how many were accepted — always a prefix: Block waits for room
// (splitting the chunk when it is larger than the space left) and accepts
// them all, Shed accepts what fits and counts the rest in Dropped. Accepted
// lines are copied into the pipeline's own storage and dropped ones are not
// copied at all, so lines need only be valid until IngestBatch returns.
//
//aarohi:hotpath
func (p *Pipeline) IngestBatch(lines []string) int {
	return p.enqueue(lines, false)
}

// IngestForwardedBatch is IngestBatch for lines that arrived over a
// peer-forwarded connection. They flow through the same bounded queue (one
// backpressure domain) but are dispatched to the Forward sink, which
// processes them locally — forwarded lines never hop again.
//
//aarohi:hotpath
func (p *Pipeline) IngestForwardedBatch(lines []string) int {
	n := p.enqueue(lines, true)
	p.forwarded.Add(int64(n))
	return n
}

//aarohi:hotpath
func (p *Pipeline) enqueue(lines []string, fwd bool) int {
	sent := 0
	p.mu.Lock()
	for {
		if p.closed {
			p.mu.Unlock()
			panic("pipeline: ingest after CloseQueue")
		}
		k := min(len(lines)-sent, len(p.ring)-p.n)
		tail := p.head + p.n
		if tail >= len(p.ring) {
			tail -= len(p.ring)
		}
		for _, line := range lines[sent : sent+k] {
			e := &p.ring[tail]
			e.line, e.slab = p.store(line)
			e.fwd = fwd
			if tail++; tail == len(p.ring) {
				tail = 0
			}
		}
		p.n += k
		sent += k
		if k > 0 {
			p.wakePump()
		}
		if sent == len(lines) || p.cfg.Overflow == Shed {
			break
		}
		p.room.Wait()
	}
	p.mu.Unlock()
	p.accepted.Add(int64(sent))
	if sent < len(lines) {
		p.dropped.Add(int64(len(lines) - sent))
	}
	return sent
}

// store copies line into the newest slab, starting a slab when it does not
// fit, and returns the copy with the slab's number. Caller holds p.mu.
//
//aarohi:hotpath
func (p *Pipeline) store(line string) (string, uint32) {
	var s *slab
	if k := len(p.slabs); k > 0 {
		s = p.slabs[k-1]
	}
	if s == nil || cap(s.buf)-len(s.buf) < len(line) {
		s = p.newSlab(len(line))
	}
	off := len(s.buf)
	s.buf = append(s.buf, line...)
	// A view of pipeline-owned storage: the slab is neither written over nor
	// released until the batch holding this line has returned from the Sink
	// (releaseBatch), which is as long as the Sink contract lets it live.
	return unsafe.String(unsafe.SliceData(s.buf[off:]), len(line)), s.seq
}

// newSlab appends an empty slab with room for n bytes to p.slabs — a reused
// one when n fits a standard slab and one is free. Caller holds p.mu.
func (p *Pipeline) newSlab(n int) *slab {
	var s *slab
	if k := len(p.freeSlabs); k > 0 && n <= slabSize {
		s = p.freeSlabs[k-1]
		p.freeSlabs[k-1] = nil
		p.freeSlabs = p.freeSlabs[:k-1]
	} else {
		s = &slab{buf: make([]byte, 0, max(n, slabSize))}
	}
	p.slabSeq++
	s.seq = p.slabSeq
	p.slabs = append(p.slabs, s)
	return s
}

// releaseBatch frees the storage of the batch that just returned from the
// Sink, with p.mu held: every slab filled before the one holding the batch's
// last line, and that one too when no queued line is left in any slab.
//
//aarohi:hotpath
func (p *Pipeline) releaseBatch() {
	k := 0
	if p.n == 0 {
		k = len(p.slabs)
	}
	for k < len(p.slabs) && int32(p.slabs[k].seq-p.batchSlab) < 0 {
		k++
	}
	for i, s := range p.slabs[:k] {
		p.slabs[i] = nil
		recycle.Release(s.buf)
		if cap(s.buf) == slabSize && len(p.freeSlabs) < maxFreeSlabs {
			s.buf = s.buf[:0]
			p.freeSlabs = append(p.freeSlabs, s)
		}
	}
	if k > 0 {
		n := copy(p.slabs, p.slabs[k:])
		clear(p.slabs[n:])
		p.slabs = p.slabs[:n]
	}
}

// CountAccepted counts n lines as accepted that the caller consumed itself
// instead of queueing them — lines the serve layer's edge found in no
// failure chain and folded into their shards' counts. The caller must hold a
// producer registration. They are never shed, never counted in Dropped and
// never reach the Sink.
func (p *Pipeline) CountAccepted(n int) { p.accepted.Add(int64(n)) }

// Draining reports whether StartDrain has been called.
func (p *Pipeline) Draining() bool { return p.draining.Load() }

// StartDrain refuses new producers; existing registrations may still finish
// enqueueing.
func (p *Pipeline) StartDrain() {
	p.prodMu.Lock()
	p.draining.Store(true)
	p.prodMu.Unlock()
}

// ProducersIdle returns a channel that closes once every registered producer
// has called EndProduce.
func (p *Pipeline) ProducersIdle() <-chan struct{} {
	idle := make(chan struct{})
	go func() { p.prodWG.Wait(); close(idle) }()
	return idle
}

// CloseQueue closes the ingest queue: the pump drains what is queued and
// exits. Only call after StartDrain and once ProducersIdle has fired — a
// producer racing a closed queue panics.
func (p *Pipeline) CloseQueue() {
	p.mu.Lock()
	p.closed = true
	p.wakePump()
	p.mu.Unlock()
}

// wakePump, with p.mu held, sends the pump the one token it asked for if it
// is asleep. The send cannot block: pumpIdle is set once per sleep and
// whoever clears it is the only sender until the next.
//
//aarohi:hotpath
func (p *Pipeline) wakePump() {
	if p.pumpIdle {
		p.pumpIdle = false
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// Done closes once the pump has exited: the queue is drained, every accepted
// line has reached the Sink, and OnDrained has returned.
func (p *Pipeline) Done() <-chan struct{} { return p.done }

// Depth is the number of queued, not-yet-pumped lines.
func (p *Pipeline) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// Capacity is the queue bound, in lines.
func (p *Pipeline) Capacity() int { return len(p.ring) }

// Accepted is the number of lines enqueued or counted by CountAccepted so
// far.
func (p *Pipeline) Accepted() int64 { return p.accepted.Load() }

// Dropped is the number of lines shed at a full queue.
func (p *Pipeline) Dropped() int64 { return p.dropped.Load() }

// Forwarded is the number of peer-forwarded lines accepted so far.
func (p *Pipeline) Forwarded() int64 { return p.forwarded.Load() }

// pump is the single consumer of the ingest queue: every accepted line flows
// through it into the Sink, so "queue drained + pump exited" means every
// accepted line reached the Sink.
func (p *Pipeline) pump() {
	defer close(p.done)
	p.pumpBatches()
	if p.cfg.OnDrained != nil {
		p.cfg.OnDrained()
	}
}

// pumpBatches blocks for the first line, then collects until BatchMax lines,
// BatchMaxBytes bytes or an empty queue, and hands the group to the Sink —
// one lock round-trip per batch when the queue keeps up. There is no timer:
// batches grow because the queue backs up while the Sink is busy. Collection
// happens outside any sink-side lock, so snapshots and hot-swaps interleave
// at batch boundaries.
//
//aarohi:hotpath
func (p *Pipeline) pumpBatches() {
	first := p.cfg.BatchMax
	if p.TestHookDelay != nil {
		// The test hook sits after the first dequeue, before any further
		// draining, so queue-overflow tests can hold the pump with a known
		// queue state.
		first = 1
	}
	for p.next(first) {
		if p.TestHookDelay != nil {
			p.TestHookDelay()
			p.mu.Lock()
			p.take(p.cfg.BatchMax)
			p.mu.Unlock()
		}
		if p.batchFwd {
			p.fwdSink.ProcessBatch(p.batch)
		} else {
			p.sink.ProcessBatch(p.batch)
		}
	}
}

// next releases the previous batch's storage and starts a new pump batch: it
// waits until a line is queued and takes up to limit lines. It reports false
// once the queue is closed and empty.
//
//aarohi:hotpath
func (p *Pipeline) next(limit int) bool {
	p.mu.Lock()
	if len(p.batch) > 0 {
		p.releaseBatch()
	}
	p.batch, p.batchBytes = p.batch[:0], 0
	for p.n == 0 {
		if p.closed {
			p.mu.Unlock()
			return false
		}
		p.pumpIdle = true
		p.mu.Unlock()
		<-p.wake
		p.mu.Lock()
	}
	p.take(limit)
	p.mu.Unlock()
	return true
}

// take moves queued lines into the pump batch, with p.mu held: up to limit
// lines and BatchMaxBytes bytes, all of the provenance of the batch's first
// line — a line whose fwd flag differs stays queued and heads the next batch,
// so arrival order is preserved across the two sinks.
//
//aarohi:hotpath
func (p *Pipeline) take(limit int) {
	took := false
	for p.n > 0 && len(p.batch) < limit && p.batchBytes < p.cfg.BatchMaxBytes {
		e := &p.ring[p.head]
		if len(p.batch) == 0 {
			p.batchFwd = e.fwd
		} else if e.fwd != p.batchFwd {
			break
		}
		p.batch = append(p.batch, e.line)
		p.batchBytes += len(e.line)
		p.batchSlab = e.slab
		if p.head++; p.head == len(p.ring) {
			p.head = 0
		}
		p.n--
		took = true
	}
	if took {
		p.room.Broadcast()
	}
}
