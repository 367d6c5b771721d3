package shard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/recycle"
	"repro/internal/ring"
)

// Router fans the ingest pipeline out over N shards by consistent-hashing
// each line's node ID. It implements the pipeline's Sink shape (ProcessBatch)
// structurally, so the serve layer can hand it to the pump without either
// package importing the other's internals.
//
// Single-shard mode is a synchronous pass-through — no worker goroutine, no
// extra copy, no reordering — which is what keeps one-shard deployments
// byte-identical on disk with the pre-router daemon. With N > 1 each shard
// gets one worker goroutine fed by a channel of sub-batches: a node's lines
// always hash to the same shard and each shard is single-consumer, so
// per-node ordering is preserved end to end.
type Router struct {
	shards []*Local
	ring   *ring.Ring

	// Multi-shard dispatch state (nil when len(shards) == 1).
	chans    []chan routerMsg
	pending  []atomic.Int64 // lines handed to a worker, not yet submitted
	flushErr []error        // last Flush error per worker slot
	wg       sync.WaitGroup

	// free recycles sub-batch shells between ProcessBatch and the workers:
	// a non-blocking receive (a miss allocates cold) and a non-blocking send.
	free chan *subBatch

	// ProcessBatch's scratch, reused across calls: each line's shard, and
	// per shard the sub-batch being filled and the bytes it needs.
	lineShard []int
	subs      []*subBatch
	subBytes  []int
}

// subBatch is one shard's share of a pump batch. The worker submits it after
// ProcessBatch has returned, when the pump's lines are no longer valid, so it
// carries its own copy: lines are views of buf.
type subBatch struct {
	lines []string
	buf   []byte
}

// routerMsg is one unit of worker work: a sub-batch to submit, or (when
// flush is non-nil) a barrier — the worker flushes its shard and signals.
type routerMsg struct {
	sub   *subBatch
	flush *sync.WaitGroup
}

// routerChanDepth bounds each shard worker's inbox (in batches). A full
// inbox blocks the dispatcher — backpressure, never loss.
const routerChanDepth = 8

// MemberName is the ring member name of shard i. Zero-padded so the ring's
// sorted member list indexes shards in numeric order.
func MemberName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// NewRouter builds a router over the given shards and starts one worker per
// shard when there are several. Placement is deterministic: the ring hashes
// fixed member names, so the same node ID lands on the same shard index in
// every process and across restarts.
func NewRouter(shards []*Local) *Router {
	r := &Router{shards: shards}
	if len(shards) == 1 {
		return r
	}
	members := make([]string, len(shards))
	for i := range shards {
		members[i] = MemberName(i)
	}
	r.ring = ring.New(0, members...)
	r.chans = make([]chan routerMsg, len(shards))
	r.pending = make([]atomic.Int64, len(shards))
	r.flushErr = make([]error, len(shards))
	// Each worker holds up to routerChanDepth queued sub-batches and one it
	// is submitting, and ProcessBatch fills one per shard.
	r.free = make(chan *subBatch, len(shards)*(routerChanDepth+2))
	r.subs = make([]*subBatch, len(shards))
	r.subBytes = make([]int, len(shards))
	for i := range shards {
		r.chans[i] = make(chan routerMsg, routerChanDepth)
		r.wg.Add(1)
		go r.worker(i)
	}
	return r
}

// routeKey extracts the routing key from a raw log line: the second
// space-separated field, which the ingest format ("RFC3339-ms node msg...")
// defines as the node ID. Malformed lines fall back to whatever is there —
// they still route deterministically, and the shard's parser rejects them
// exactly as a single-shard daemon would.
//
// RouteKey exposes the routing key to the cluster layer, which places lines
// on peers with the same key the Router uses to place them on shards.
//
//aarohi:hotpath
func RouteKey(line string) string { return routeKey(line) }

//aarohi:hotpath
func routeKey(line string) string {
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return line
	}
	rest := line[sp+1:]
	if end := strings.IndexByte(rest, ' '); end >= 0 {
		return rest[:end]
	}
	return rest
}

// shardFor maps one line to its owning shard index.
//
//aarohi:hotpath
func (r *Router) shardFor(line string) int {
	return r.ring.LookupIndex(routeKey(line))
}

// ProcessBatch splits one pump batch by owning shard and hands each shard
// its sub-batch. batch is only valid for the call, like any Sink input. One
// shard submits it in place; several copy each line into a recycled
// sub-batch for the shard's worker, so steady-state routing allocates
// nothing. Calls must not overlap: the pump is the one caller.
//
//aarohi:hotpath
func (r *Router) ProcessBatch(batch []string) {
	if r.ring == nil {
		r.shards[0].SubmitBatch(batch)
		return
	}
	if len(batch) > cap(r.lineShard) {
		//aarohi:allow hotpath grows to the largest pump batch once
		r.lineShard = make([]int, len(batch))
	}
	lineShard := r.lineShard[:len(batch)]
	clear(r.subBytes)
	for j, line := range batch {
		i := r.shardFor(line)
		lineShard[j] = i
		r.subBytes[i] += len(line)
	}
	for j, line := range batch {
		i := lineShard[j]
		sb := r.subs[i]
		if sb == nil {
			sb = r.getSub(r.subBytes[i])
			r.subs[i] = sb
		}
		off := len(sb.buf)
		sb.buf = append(sb.buf, line...) // within the capacity getSub reserved: earlier views stay put
		// A view of the sub-batch's own storage, which is released only
		// after the shard's worker has submitted it (putSub).
		sb.lines = append(sb.lines, unsafe.String(unsafe.SliceData(sb.buf[off:]), len(line)))
	}
	for i, sb := range r.subs {
		if sb == nil {
			continue
		}
		r.subs[i] = nil
		r.pending[i].Add(int64(len(sb.lines)))
		r.chans[i] <- routerMsg{sub: sb}
	}
}

// getSub returns an empty sub-batch shell with room for n bytes of lines.
//
//aarohi:hotpath
func (r *Router) getSub(n int) *subBatch {
	var sb *subBatch
	select {
	case sb = <-r.free:
	default:
		//aarohi:allow hotpath cold: the freelist is empty until the workers have returned their first shells
		sb = &subBatch{}
	}
	if cap(sb.buf) < n {
		//aarohi:allow hotpath grows each shell to the largest sub-batch once
		sb.buf = make([]byte, 0, max(n, 2*cap(sb.buf)))
	}
	return sb
}

// putSub releases a submitted sub-batch's storage and recycles the shell.
func (r *Router) putSub(sb *subBatch) {
	recycle.Release(sb.buf)
	sb.lines, sb.buf = sb.lines[:0], sb.buf[:0]
	select {
	case r.free <- sb:
	default:
	}
}

// worker is shard i's single consumer: sub-batches submit in arrival order,
// flush barriers drain the shard and signal.
func (r *Router) worker(i int) {
	defer r.wg.Done()
	for msg := range r.chans[i] {
		if msg.flush != nil {
			r.flushErr[i] = r.shards[i].Flush()
			msg.flush.Done()
			continue
		}
		r.shards[i].SubmitBatch(msg.sub.lines)
		r.pending[i].Add(-int64(len(msg.sub.lines)))
		r.putSub(msg.sub)
	}
}

// Pending is the number of lines queued to shard i's worker but not yet
// submitted (always 0 in single-shard mode — the pipeline queue is the only
// buffer there).
func (r *Router) Pending(i int) int {
	if r.pending == nil {
		return 0
	}
	return int(r.pending[i].Load())
}

// Flush blocks until every line already dispatched has been fully processed
// by its shard — the cross-shard barrier benchmarks and tests use to stop
// the clock only after real work finishes.
func (r *Router) Flush() error {
	if r.ring == nil {
		return r.shards[0].Flush()
	}
	var wg sync.WaitGroup
	wg.Add(len(r.chans))
	for i := range r.chans {
		r.chans[i] <- routerMsg{flush: &wg}
	}
	wg.Wait()
	for _, err := range r.flushErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// FinishIngest runs after the pump drains: workers stop (their channels
// close and drain), then every shard checkpoints and closes its manager.
func (r *Router) FinishIngest(skipFinalSnapshot bool) {
	if r.ring != nil {
		for i := range r.chans {
			close(r.chans[i])
		}
		r.wg.Wait()
	}
	for _, sh := range r.shards {
		sh.FinishIngest(skipFinalSnapshot)
	}
}
