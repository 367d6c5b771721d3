package predictor

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
)

// ErrClosed is returned by ProcessLine/ProcessToken after Close: the manager
// no longer accepts events.
var ErrClosed = errors.New("predictor: manager closed")

// Manager processes an aggregate cluster log stream concurrently: nodes are
// sharded across worker goroutines by node-ID hash, each worker owning the
// parse drivers of its shard. Per-node event ordering is preserved (one node
// always maps to the same worker, and worker queues are FIFO), which is all
// Aarohi's semantics need — drivers of different nodes never interact.
//
// This is the deployment shape of the paper's Fig. 16: the SMW ingests the
// whole machine's logs, and per-node predictor instances run independently;
// sharding turns that independence into multicore throughput.
//
// Lifecycle: ProcessLine/ProcessToken may be called from any number of
// goroutines concurrently with each other, with Stats, and with Close. After
// Close, Process* calls return ErrClosed.
type Manager struct {
	// model is the compiled model every worker's predictor runs; its hex
	// fingerprint is stamped onto every emitted Output so consumers can
	// attribute predictions to a model version across hot-swaps.
	model   *Model
	workers []*managerWorker
	results chan Output
	wg      sync.WaitGroup

	// accepted counts lines and events admitted by Process* (enqueued to a
	// worker). After Results closes, Stats().LinesScanned reconciles with it
	// exactly: every accepted event is counted by exactly one scan.
	accepted atomic.Uint64

	mu     sync.RWMutex // guards closed; held (R) across worker sends
	closed bool

	// heartbeat, when set, observes the (node, timestamp) of every line the
	// ingest paths successfully parse — benign chatter included — giving a
	// liveness detector the full per-node last-seen signal, not just the
	// trickle of scanner matches. Stored atomically so it can be attached to
	// a manager that is already processing lines (boot, hot-swap).
	heartbeat atomic.Pointer[func(node string, ts time.Time)]

	// batchFree/builderFree recycle the batch-path shells between callers and
	// workers. Buffered channels of concrete pointer types stand in for
	// sync.Pool: Get is a non-blocking receive (a miss allocates cold),
	// Put a non-blocking send (overflow is left to the GC), and no value ever
	// crosses an interface boundary on the hot path.
	batchFree   chan *eventBatch
	builderFree chan *batchBuilder
}

type managerWorker struct {
	in chan managerEvent

	// slots bounds the batches in flight to this worker (see
	// maxInflightBatches): ProcessLineBatch and ProcessScanned take one per
	// batch they send, runBatch and runTokens give it back.
	slots chan struct{}

	// mu is held by the worker goroutine while it mutates pred, and by
	// Stats() while it snapshots pred's counters. It is effectively
	// uncontended on the hot path (the worker is the only steady holder).
	mu   sync.Mutex
	pred *Predictor
}

type managerEvent struct {
	tok core.Token
	msg string // raw message body; scanned in the worker when non-empty

	// flush is a barrier marker (see Flush): the worker forwards it through
	// the results channel instead of processing it.
	flush chan<- struct{}

	// batch, when non-nil, carries a group of pre-parsed line events
	// (ProcessLineBatch): one channel send delivers the whole group, and the
	// worker returns the shell to the freelist when done.
	batch *eventBatch

	// tokens, when non-nil, carries a group of pre-scanned lines
	// (ProcessScanned).
	tokens *tokenBatch
}

// tokenBatch is the share of one Scanned batch bound for a single worker: the
// tokens of its nodes, plus the batch's discarded-line count on the first
// worker it reaches.
type tokenBatch struct {
	toks      []core.Token
	discarded int
}

// batchEntry is one pre-parsed line inside an eventBatch: exactly the state a
// ProcessLine send carries, minus the per-line channel traffic.
type batchEntry struct {
	tok core.Token
	msg string
}

// eventBatch groups the batchEntries bound for a single worker. Shells cycle
// through Manager.batchFree so steady-state batching never allocates.
type eventBatch struct {
	entries []batchEntry
}

// batchBuilder is the per-call scatter table of ProcessLineBatch: one slot
// per worker, filled lazily as lines route to shards. Shells cycle through
// Manager.builderFree.
type batchBuilder struct {
	shards []*eventBatch
}

// maxInflightBatches bounds the batches queued to or running on one worker.
// The 512-event inbox is sized for single-line events; a batch carries
// hundreds of lines, each pinning the socket chunk it was cut from, so a
// submitter that outruns the scan workers must be stopped after a few
// thousand lines, not a few hundred batches (that window held the daemon's
// RSS at twice its working set). It cannot be much smaller either: with as
// many workers as cores the submitter shares a core with a worker, and a
// window that worker drains before the scheduler switches back leaves it
// idle — 4 and 8 batches cost 2x on a two-core host, 16 and up are within
// noise of unbounded.
const maxInflightBatches = 16

// NewManager compiles the model (Compile) and builds a concurrent predictor
// over it with the given worker count (0 → GOMAXPROCS).
func NewManager(chains []core.FailureChain, inventory []core.Template, opts Options, workers int) (*Manager, error) {
	model, err := Compile(chains, inventory, opts)
	if err != nil {
		return nil, err
	}
	return model.NewManager(workers), nil
}

// NewManager builds a concurrent predictor over this model with the given
// worker count (0 → GOMAXPROCS). Each worker holds its own per-node state
// over the one shared model; results (predictions and observed failures)
// arrive on Results.
func (model *Model) NewManager(workers int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := &Manager{
		model:   model,
		results: make(chan Output, 256),
		// Every in-flight batch pins a shell, and each concurrent submitter
		// holds up to one per worker while it scatters: size the freelist
		// for the full window plus two submitters, or steady-state blast
		// ingest churns a fresh shell per dispatch.
		batchFree:   make(chan *eventBatch, (maxInflightBatches+2)*workers),
		builderFree: make(chan *batchBuilder, 4),
	}
	for i := 0; i < workers; i++ {
		w := &managerWorker{
			in:    make(chan managerEvent, 512),
			slots: make(chan struct{}, maxInflightBatches),
			pred:  model.NewPredictor(),
		}
		m.workers = append(m.workers, w)
		m.wg.Add(1)
		go m.run(w)
	}
	return m
}

// Model returns the compiled model every worker runs.
func (m *Manager) Model() *Model { return m.model }

// Fingerprint returns the model fingerprint (chains + inventory + options).
func (m *Manager) Fingerprint() uint64 { return m.model.fingerprint }

// FingerprintHex returns the fingerprint in the canonical 16-hex-digit form
// used by the model registry, /statusz and Output.Model.
func (m *Manager) FingerprintHex() string { return m.model.fpHex }

// RulesFingerprint returns the automaton fingerprint (rule phrase sequences +
// factoring mode) — the key that decides whether parse stacks can migrate
// into another model (see AdoptState).
func (m *Manager) RulesFingerprint() uint64 { return m.model.rulesFingerprint }

//aarohi:hotpath
func (m *Manager) run(w *managerWorker) {
	defer m.wg.Done()
	var outBuf []Output // reused across batches; grows to the high-water mark
	for ev := range w.in {
		if ev.flush != nil {
			// Barrier marker: forward it through the FIFO results channel.
			// When the consumer acks it, every output this worker emitted
			// before the marker has been received.
			m.results <- Output{flush: ev.flush}
			continue
		}
		if ev.batch != nil {
			outBuf = m.runBatch(w, ev.batch, outBuf)
			continue
		}
		if ev.tokens != nil {
			outBuf = m.runTokens(w, ev.tokens, outBuf)
			continue
		}
		w.mu.Lock()
		var out Output
		if ev.msg != "" {
			id, ok := w.pred.Scanner().Scan(ev.msg)
			w.pred.linesScanned++
			if !ok {
				w.pred.discarded++
				w.mu.Unlock()
				continue
			}
			w.pred.tokens++
			ev.tok.Phrase = id
			out = w.pred.processToken(ev.tok)
		} else {
			out = w.pred.ProcessToken(ev.tok)
		}
		w.mu.Unlock()
		if out.Prediction != nil || out.Failure != nil {
			out.Model = m.model.fpHex
			m.results <- out
		}
	}
}

// runBatch processes one delivered batch exactly as the per-line loop would —
// worker-side scan, identical counter updates, processToken per match — but
// holds w.mu once for the whole group and defers result sends until the lock
// is released (Stats callers are never blocked behind a full results channel).
// Returns the output buffer so its capacity survives to the next batch.
//
//aarohi:hotpath
func (m *Manager) runBatch(w *managerWorker, eb *eventBatch, outBuf []Output) []Output {
	outs := outBuf[:0]
	w.mu.Lock()
	for i := range eb.entries {
		e := &eb.entries[i]
		id, ok := w.pred.Scanner().Scan(e.msg)
		w.pred.linesScanned++
		if !ok {
			w.pred.discarded++
			continue
		}
		w.pred.tokens++
		e.tok.Phrase = id
		out := w.pred.processToken(e.tok)
		if out.Prediction != nil || out.Failure != nil {
			out.Model = m.model.fpHex
			outs = append(outs, out)
		}
	}
	w.mu.Unlock()
	m.putBatch(eb)
	<-w.slots
	for i := range outs {
		m.results <- outs[i]
		outs[i] = Output{} // drop the Prediction/Failure pointers we retain
	}
	return outs[:0]
}

// runTokens is runBatch for a pre-scanned batch: the scan already happened,
// so the worker counts the batch's lines and feeds its tokens to the parse.
//
//aarohi:hotpath
func (m *Manager) runTokens(w *managerWorker, tb *tokenBatch, outBuf []Output) []Output {
	outs := outBuf[:0]
	w.mu.Lock()
	w.pred.linesScanned += len(tb.toks) + tb.discarded
	w.pred.discarded += tb.discarded
	w.pred.tokens += len(tb.toks)
	for _, tok := range tb.toks {
		out := w.pred.processToken(tok)
		if out.Prediction != nil || out.Failure != nil {
			out.Model = m.model.fpHex
			outs = append(outs, out)
		}
	}
	w.mu.Unlock()
	<-w.slots
	for i := range outs {
		m.results <- outs[i]
		outs[i] = Output{}
	}
	return outs[:0]
}

// Results delivers predictions and observed failures. Close arranges for it
// to be closed once every pending event has drained through the workers —
// which may happen after Close has already returned, so consume with range
// rather than assuming the channel is closed when Close returns.
func (m *Manager) Results() <-chan Output { return m.results }

//aarohi:hotpath
func (m *Manager) workerFor(node string) *managerWorker {
	return m.workers[fnvIndex(node, len(m.workers))]
}

// fnvIndex shards key with inlined FNV-1a: hash.Hash32 would cost an
// interface allocation per line, and []byte(node) a copy.
//
//aarohi:hotpath
func fnvIndex[T ~string | ~[]byte](key T, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// SetHeartbeat registers fn to observe the (node, timestamp) of every line
// ProcessLine/ProcessLineBatch successfully parses. fn must be safe for
// concurrent calls (the ingest paths are); nil clears the hook. The node
// string may alias ingest buffers — observers must copy it if they retain it.
func (m *Manager) SetHeartbeat(fn func(node string, ts time.Time)) {
	if fn == nil {
		m.heartbeat.Store(nil)
		return
	}
	m.heartbeat.Store(&fn)
}

// ProcessLine routes one raw log line to its node's worker. Scanning happens
// inside the worker, in parallel across shards. Safe for concurrent use;
// returns ErrClosed after Close.
//
//aarohi:hotpath
func (m *Manager) ProcessLine(line string) error {
	ts, node, msg, err := lexgen.ParseLine(line)
	if err != nil {
		return err
	}
	if hb := m.heartbeat.Load(); hb != nil {
		(*hb)(node, ts)
	}
	return m.send(m.workerFor(node), managerEvent{
		tok: core.Token{Time: ts, Node: node},
		msg: msg,
	})
}

// ProcessLineBatch routes a group of raw log lines in one pass: lines are
// parsed and heartbeat-observed caller-side, scattered into per-shard batches
// by the same per-node hash ProcessLine uses, and delivered with one channel
// send per shard instead of one per line. Scanning still happens inside the
// worker, so the outputs, counters and Stats are exactly those of calling
// ProcessLine on each parseable line in order.
//
// Malformed lines are skipped and counted in parseErrs (the per-line path
// reports them one error at a time; a batch reports how many). After Close
// the whole batch is rejected with ErrClosed and nothing is enqueued —
// matching the per-line path, where every post-Close call fails. Lines of one
// batch reach each node's worker in slice order; ordering across concurrent
// callers is unspecified, as with ProcessLine. Safe for concurrent use.
//
//aarohi:hotpath
func (m *Manager) ProcessLineBatch(lines []string) (parseErrs int, err error) {
	if len(lines) == 0 {
		return 0, nil
	}
	b := m.getBuilder()
	hb := m.heartbeat.Load()
	n := 0
	for _, line := range lines {
		ts, node, msg, perr := lexgen.ParseLine(line)
		if perr != nil {
			parseErrs++
			continue
		}
		if hb != nil {
			(*hb)(node, ts)
		}
		wi := fnvIndex(node, len(m.workers))
		eb := b.shards[wi]
		if eb == nil {
			eb = m.getBatch()
			b.shards[wi] = eb
		}
		eb.entries = append(eb.entries, batchEntry{tok: core.Token{Time: ts, Node: node}, msg: msg})
		n++
	}
	if n == 0 {
		m.putBuilder(b)
		return parseErrs, nil
	}
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		for i, eb := range b.shards {
			if eb != nil {
				b.shards[i] = nil
				m.putBatch(eb)
			}
		}
		m.putBuilder(b)
		return parseErrs, ErrClosed
	}
	// Count the whole group before the first enqueue, mirroring send: inside
	// the RLock with closed == false delivery is guaranteed, and Accepted()
	// never trails processed.
	m.accepted.Add(uint64(n))
	for i, eb := range b.shards {
		if eb == nil {
			continue
		}
		b.shards[i] = nil
		//aarohi:allow lockblock workers release slots as they drain, until Close; the RLock only excludes Close's swap, which waits for senders first
		m.workers[i].slots <- struct{}{}
		//aarohi:allow lockblock worker queues are buffered and drained until Close; see above
		m.workers[i].in <- managerEvent{batch: eb}
	}
	m.mu.RUnlock()
	m.putBuilder(b)
	return parseErrs, nil
}

// getBatch / putBatch / getBuilder / putBuilder are the freelist cold+recycle
// paths; the steady state of each is a single channel operation on a concrete
// pointer type.

func (m *Manager) getBatch() *eventBatch {
	select {
	case eb := <-m.batchFree:
		return eb
	default:
		return &eventBatch{}
	}
}

func (m *Manager) putBatch(eb *eventBatch) {
	clear(eb.entries) // drop node/msg string references before pooling
	eb.entries = eb.entries[:0]
	select {
	case m.batchFree <- eb:
	default:
	}
}

func (m *Manager) getBuilder() *batchBuilder {
	select {
	case b := <-m.builderFree:
		return b
	default:
		return &batchBuilder{shards: make([]*eventBatch, len(m.workers))}
	}
}

func (m *Manager) putBuilder(b *batchBuilder) {
	select {
	case m.builderFree <- b:
	default:
	}
}

// Scanned is a run of lines parsed and scanned before they reach a manager —
// by boot replay's scan stage — reduced to what the workers still need: a
// token for every line that matched a template, and counts for the rest.
type Scanned struct {
	// Model is the model the lines were scanned under: phrase IDs from
	// another model's scanner would feed the parse the wrong tokens, so a
	// manager running a different model refuses the batch.
	Model *Model
	// Tokens are the lines that tokenized, in stream order. Each token owns
	// its Node string.
	Tokens []core.Token
	// Discarded counts the parseable lines that matched no template.
	Discarded int
	// ParseErrors counts the lines that did not parse.
	ParseErrors int
}

// ErrModelMismatch is returned by ProcessScanned for a batch scanned under a
// model other than the manager's.
var ErrModelMismatch = errors.New("predictor: batch was scanned under another model")

// ProcessScanned is ProcessLineBatch for lines already scanned: the tokens
// are scattered by the same per-node placement and reach each node's worker
// in slice order, and the workers count the discarded lines as scanned and
// discarded, so outputs, Stats, Accepted and snapshots are exactly those of
// handing the raw lines to ProcessLineBatch. The heartbeat hook does not fire
// — the manager never sees the discarded lines' headers — so a caller that
// feeds one fires it for every parseable line itself, before this call.
//
// parseErrs is s.ParseErrors, reported as ProcessLineBatch reports a batch's
// malformed lines. After Close the whole batch is rejected with ErrClosed and
// nothing is counted. s is not retained. Safe for concurrent use.
func (m *Manager) ProcessScanned(s *Scanned) (parseErrs int, err error) {
	if s.Model == nil || s.Model.fingerprint != m.model.fingerprint {
		return s.ParseErrors, ErrModelMismatch
	}
	n := len(s.Tokens) + s.Discarded
	if n == 0 {
		return s.ParseErrors, nil
	}
	shards := make([]*tokenBatch, len(m.workers))
	for _, tok := range s.Tokens {
		wi := fnvIndex(tok.Node, len(m.workers))
		if shards[wi] == nil {
			shards[wi] = &tokenBatch{}
		}
		shards[wi].toks = append(shards[wi].toks, tok)
	}
	// No node was hashed for a discarded line, so its count rides on the
	// first batch sent (worker 0's when nothing tokenized); Stats sums the
	// workers either way.
	first := 0
	for i, tb := range shards {
		if tb != nil {
			first = i
			break
		}
	}
	if shards[first] == nil {
		shards[first] = &tokenBatch{}
	}
	shards[first].discarded = s.Discarded

	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return s.ParseErrors, ErrClosed
	}
	m.accepted.Add(uint64(n))
	for i, tb := range shards {
		if tb == nil {
			continue
		}
		//aarohi:allow lockblock workers release slots as they drain, until Close; see ProcessLineBatch
		m.workers[i].slots <- struct{}{}
		//aarohi:allow lockblock worker queues are buffered and drained until Close; see ProcessLineBatch
		m.workers[i].in <- managerEvent{tokens: tb}
	}
	m.mu.RUnlock()
	return s.ParseErrors, nil
}

// ProcessToken routes one pre-scanned token to its node's worker. Safe for
// concurrent use; returns ErrClosed after Close.
//
//aarohi:hotpath
func (m *Manager) ProcessToken(tok core.Token) error {
	return m.send(m.workerFor(tok.Node), managerEvent{tok: tok})
}

// send enqueues an event while holding the read side of the close lock, so a
// concurrent Close can never close a worker channel mid-send.
func (m *Manager) send(w *managerWorker, ev managerEvent) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	// Count before enqueuing: once inside the RLock with closed == false the
	// event is guaranteed to be delivered, and counting first keeps the
	// invariant Accepted() >= processed at every instant (Stats readers
	// observe the two in that order).
	m.accepted.Add(1)
	//aarohi:allow lockblock worker queues are buffered and drained until Close; the RLock only excludes Close's swap, which waits for senders first
	w.in <- ev
	return nil
}

// Accepted returns the number of events Process* has successfully enqueued.
// Once Results has closed (all workers drained), Stats().LinesScanned equals
// Accepted() exactly — the invariant that no accepted event is lost or
// double-processed during shutdown.
func (m *Manager) Accepted() uint64 { return m.accepted.Load() }

// Flush is a full-pipeline barrier: it injects a marker into every worker
// queue and blocks until the Results consumer has acked all of them (via
// Output.Ack). On return, every event enqueued before the Flush call has
// been processed AND its output received by the consumer. The caller must
// ensure Results is being drained (the markers travel through it) and must
// not call Flush from the consumer goroutine itself. Returns ErrClosed after
// Close.
func (m *Manager) Flush() error {
	ack := make(chan struct{}, len(m.workers))
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return ErrClosed
	}
	for _, w := range m.workers {
		//aarohi:allow lockblock flush markers ride the same drained worker queues as events; see send
		w.in <- managerEvent{flush: ack}
	}
	m.mu.RUnlock()
	for range m.workers {
		<-ack
	}
	return nil
}

// Close stops the manager: subsequent Process* calls return ErrClosed, every
// already-enqueued event still drains through its worker, and Results is
// closed once that drain completes (possibly after Close returns). Close is
// idempotent — extra calls are no-ops. The caller should consume Results
// with range until it closes.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	for _, w := range m.workers {
		close(w.in)
	}
	go func() {
		m.wg.Wait()
		close(m.results)
	}()
}

// Stats aggregates the counters of every worker. Safe to call at any time —
// concurrently with Process* and Close — and returns a consistent per-worker
// snapshot (each worker is paused briefly between events while its counters
// are read).
func (m *Manager) Stats() Stats {
	var st Stats
	for _, w := range m.workers {
		w.mu.Lock()
		ws := w.pred.Stats()
		w.mu.Unlock()
		st.LinesScanned += ws.LinesScanned
		st.Tokens += ws.Tokens
		st.Discarded += ws.Discarded
		st.Nodes += ws.Nodes
		st.Parser.Tokens += ws.Parser.Tokens
		st.Parser.Irrelevant += ws.Parser.Irrelevant
		st.Parser.Consumed += ws.Parser.Consumed
		st.Parser.Skipped += ws.Parser.Skipped
		st.Parser.Interleaved += ws.Parser.Interleaved
		st.Parser.TimeoutResets += ws.Parser.TimeoutResets
		st.Parser.Matches += ws.Parser.Matches
	}
	return st
}
