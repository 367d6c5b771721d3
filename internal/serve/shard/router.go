package shard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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
}

// routerMsg is one unit of worker work: a sub-batch to submit, or (when
// flush is non-nil) a barrier — the worker flushes its shard and signals.
type routerMsg struct {
	batch []string
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
// its sub-batch. Sub-batches are freshly allocated — workers consume them
// asynchronously while the pump reuses the input slice — but the cost
// amortizes over the batch (a handful of allocations per hundreds of lines),
// so the ingest hot path still benchmarks at 0 allocs/op.
func (r *Router) ProcessBatch(batch []string) {
	if r.ring == nil {
		r.shards[0].SubmitBatch(batch)
		return
	}
	subs := make([][]string, len(r.shards))
	for _, line := range batch {
		i := r.shardFor(line)
		subs[i] = append(subs[i], line)
	}
	for i, sub := range subs {
		if len(sub) == 0 {
			continue
		}
		r.pending[i].Add(int64(len(sub)))
		r.chans[i] <- routerMsg{batch: sub}
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
		r.shards[i].SubmitBatch(msg.batch)
		r.pending[i].Add(-int64(len(msg.batch)))
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
