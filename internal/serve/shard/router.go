package shard

import (
	"strings"

	"repro/internal/ring"
)

// Router places the ingest pipeline's lines on N shards by consistent-hashing
// each line's node ID. It implements the pipeline's Sink shape (ProcessBatch)
// structurally, so the serve layer can hand it to the pump without either
// package importing the other's internals.
//
// Shards are placement, not parallelism: the Router submits every shard's
// share of a batch on the caller's goroutine, and each shard's Manager fans
// the lines out to its own predictor workers. A node's lines always hash to
// the same shard and the pump is the one caller, so per-node ordering is
// preserved end to end. Single-shard mode hands the batch through whole,
// which keeps one-shard deployments byte-identical on disk with the
// pre-router daemon.
type Router struct {
	shards []*Local
	ring   *ring.Ring // nil when len(shards) == 1

	// subs is ProcessBatch's scratch, reused across calls: per shard, the
	// views of the current batch's lines it owns.
	subs [][]string
}

// MemberName is the ring member name of shard i, shared with the cluster's
// peer map so a forwarded line lands on the shard its owner would pick.
func MemberName(i int) string { return ring.ShardMemberName(i) }

// NewRouter builds a router over the given shards. Placement is
// deterministic: the ring hashes fixed member names, so the same node ID
// lands on the same shard index in every process and across restarts.
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
	r.subs = make([][]string, len(shards))
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

// ProcessBatch splits one pump batch by owning shard and submits each
// shard's share in turn. batch is only valid for the call, like any Sink
// input; the shares are views of it, and Local.SubmitBatch copies what it
// keeps, so routing copies nothing and allocates nothing in steady state.
// Calls must not overlap: the pump is the one caller.
//
//aarohi:hotpath
func (r *Router) ProcessBatch(batch []string) {
	if r.ring == nil {
		r.shards[0].SubmitBatch(batch)
		return
	}
	for _, line := range batch {
		i := r.ShardIndex(routeKey(line))
		r.subs[i] = append(r.subs[i], line)
	}
	for i, sub := range r.subs {
		if len(sub) > 0 {
			r.shards[i].SubmitBatch(sub)
		}
		r.subs[i] = sub[:0]
	}
}

// ShardIndex is the index of the shard that owns the line routing key key
// (a node ID): the Router's one placement function, shared with the serve
// layer's edge, which counts the lines it discards on their owner. It is 0
// with one shard and safe for concurrent use.
//
//aarohi:hotpath
func (r *Router) ShardIndex(key string) int {
	if r.ring == nil {
		return 0
	}
	return r.ring.LookupIndex(key)
}

// Pending always returns 0: shards are submitted synchronously, so the
// pipeline queue is the only buffer. It is kept only because bench/layers.go
// compiles against it, until ROADMAP item 1(b) rebuilds the bench stubs.
func (r *Router) Pending(int) int { return 0 }

// Flush blocks until every line already submitted has been fully processed
// by its shard — the cross-shard barrier benchmarks and tests use to stop
// the clock only after real work finishes.
func (r *Router) Flush() error {
	for _, sh := range r.shards {
		if err := sh.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// FinishIngest runs after the pump drains: every shard checkpoints and
// closes its manager. The daemon finishes its shards through its lifecycle
// Group; this is kept only because bench/ compiles against it, until
// ROADMAP item 1(b) rebuilds the bench stubs.
func (r *Router) FinishIngest(skipFinalSnapshot bool) {
	for _, sh := range r.shards {
		sh.FinishIngest(skipFinalSnapshot)
	}
}
