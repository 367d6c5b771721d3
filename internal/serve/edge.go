package serve

import (
	"repro/internal/lexgen"
	"repro/internal/predictor"
	"repro/internal/serve/pipeline"
	"repro/internal/serve/shard"
)

// The edge is the chunk function both transports call (SetBatchIngest): it
// runs on the connection goroutine, once per socket read (or per HTTP body
// read), and drops the lines no failure chain needs before any other work is
// done on them — the paper's first optimisation (§1, Fig. 12), applied where
// the bytes land instead of after the queue, the batch cut, the router and
// the worker copy.
//
// For each line it parses the header and scans the message in place under
// its shard's active model. It queues only the lines the model keeps and the
// lines that do not parse (the pump path counts their per-shard parse
// errors). Each shard's dropped lines are folded into its counts with one
// Local.CountDiscarded per chunk, then counted as accepted; they never wait in
// the queue, so they are never shed and never count in lines_dropped. A
// shard with a journal records each as a 2-byte discard mark in the same
// snapMu hold; its kept lines are journaled in full by the pump, as before.
//
// The edge runs only where no consumer reads a dropped line:
//   - not at all with an arbiter (every line is a heartbeat) or a cluster
//     (peers may arbitrate, and may run another model mid-rollout) — decided
//     once, at Start (a journal records each dropped line as a mark, which
//     replay attributes to a model through the registry every server runs);
//   - not for a shard running a shadow (it scans with its own model), checked
//     per chunk under the shard's snapMu: the shard's lines are then queued;
//   - not under a model the shard no longer runs: a hot-swap that lands
//     between the scan and the count comes back as ErrModelMismatch, and the
//     chunk is scanned again under the new model — its raw lines stay valid
//     until the chunk call returns.
//
// A shard's lines go down the queue in chunk order either way, and a line
// that no template matches changes no parse state, so the outputs are those
// of the queue path.
type edge struct {
	pipe   *pipeline.Pipeline
	router *shard.Router
	shards []*shard.Local
	// on is the Start-time decision: false sends every chunk to the queue.
	on bool
	// free recycles chunk scratch between connection goroutines; a miss
	// allocates (cold), an overflow is left to the garbage collector.
	free chan *edgeScratch
	// testHookScanned, when non-nil, runs after each scan of a chunk and
	// before its counts — tests swap models and start shadows there.
	testHookScanned func()
}

// edgeScratch is one chunk call's working state, reused across calls.
type edgeScratch struct {
	keep   []string // the lines to queue, in chunk order
	parser lexgen.LineParser
	// Per shard: the model scanned under, the lines found in no template,
	// and where the shard stands in this chunk.
	models []*predictor.Model
	disc   []int
	state  []edgeState
}

type edgeState uint8

const (
	edgeScan    edgeState = iota // scan; count the dropped lines
	edgeCounted                  // dropped lines already counted: scan, drop, do not count again
	edgeQueue                    // a consumer needs every line: queue them all
)

// edgeFree bounds the scratch kept for reuse: one per connection that reads
// at the same time.
const edgeFree = 64

func newEdge(pipe *pipeline.Pipeline, router *shard.Router, shards []*shard.Local, on bool) *edge {
	return &edge{pipe: pipe, router: router, shards: shards, on: on, free: make(chan *edgeScratch, edgeFree)}
}

// ingest is the transports' chunk function: it returns how many of lines
// were accepted, dropped lines included. lines and the strings in it are
// views of the transport's read buffer, valid until ingest returns.
//
//aarohi:hotpath
func (e *edge) ingest(lines []string) int {
	if !e.on {
		return e.pipe.IngestBatch(lines)
	}
	sc := e.get()
	for i, sh := range e.shards {
		sc.models[i], sc.state[i] = sh.Manager().Model(), edgeScan
	}
	accepted := 0
	for {
		e.scan(sc, lines)
		if e.testHookScanned != nil {
			e.testHookScanned()
		}
		counted, rescan := e.count(sc)
		accepted += counted
		if !rescan {
			break
		}
	}
	// Nothing of a chunk is queued until its counts have landed: a rescan
	// after a swap can keep more lines, and lines queued after the first
	// scan would then be ahead of lines that preceded them.
	if len(sc.keep) > 0 {
		accepted += e.pipe.IngestBatch(sc.keep)
	}
	e.put(sc)
	return accepted
}

// scan sorts a chunk's lines into sc.keep and per-shard drop counts.
//
//aarohi:hotpath
func (e *edge) scan(sc *edgeScratch, lines []string) {
	sc.keep = sc.keep[:0]
	clear(sc.disc)
	for _, line := range lines {
		_, node, msg, err := sc.parser.Parse(line)
		if err != nil {
			sc.keep = append(sc.keep, line)
			continue
		}
		i := e.router.ShardIndex(node) // a parsed line's node is its routing key
		if sc.state[i] == edgeQueue {
			sc.keep = append(sc.keep, line)
			continue
		}
		if _, ok := sc.models[i].Scanner().Scan(msg); ok {
			sc.keep = append(sc.keep, line)
		} else if sc.state[i] == edgeScan {
			sc.disc[i]++
		}
	}
}

// count folds each shard's dropped lines into its counts and returns how
// many it counted, and whether the chunk must be scanned again: a shard
// swapped models after the scan (rescan under the new one), or it needs
// every line (rescan to queue them).
//
//aarohi:hotpath
func (e *edge) count(sc *edgeScratch) (counted int, rescan bool) {
	for i, k := range sc.disc {
		if k == 0 || sc.state[i] != edgeScan {
			continue
		}
		switch err := e.shards[i].CountDiscarded(sc.models[i], k); err {
		case nil:
			sc.state[i] = edgeCounted
			e.pipe.CountAccepted(k)
			counted += k
		case predictor.ErrModelMismatch:
			sc.models[i] = e.shards[i].Manager().Model()
			rescan = true
		default:
			// shard.ErrEveryLine; ErrClosed cannot happen while a producer
			// is registered, and the queue path reports it if it does.
			sc.state[i] = edgeQueue
			rescan = true
		}
	}
	return counted, rescan
}

func (e *edge) get() *edgeScratch {
	select {
	case sc := <-e.free:
		return sc
	default:
		n := len(e.shards)
		return &edgeScratch{models: make([]*predictor.Model, n), disc: make([]int, n), state: make([]edgeState, n)}
	}
}

func (e *edge) put(sc *edgeScratch) {
	clear(sc.keep[:cap(sc.keep)]) // drop the views of the transport's buffer
	clear(sc.models)
	select {
	case e.free <- sc:
	default:
	}
}
