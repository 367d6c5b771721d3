package predictor

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/recycle"
)

// ErrClosed is returned by the Process* calls after Close: the manager no
// longer accepts lines.
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
// Lines reach the workers in batches: ProcessLineBatch and ProcessScanned
// send each worker one batch per call, and ProcessLine is a batch of one. A
// line already scanned and discarded (ProcessScanned's count) changes no
// parse state, so it rides no batch: the manager counts it itself.
//
// Lifecycle: the Process* calls may be made from any number of goroutines
// concurrently with each other, with Stats, and with Close. After Close, they
// return ErrClosed.
type Manager struct {
	// model is the compiled model every worker's predictor runs; its hex
	// fingerprint is stamped onto every emitted Output so consumers can
	// attribute predictions to a model version across hot-swaps.
	model   *Model
	workers []*managerWorker
	results chan Output
	wg      sync.WaitGroup

	// accepted counts lines admitted by Process* (enqueued to a worker). After
	// Results closes, Stats().LinesScanned reconciles with it exactly: every
	// accepted line is counted by exactly one scan.
	accepted atomic.Uint64

	// discarded counts the lines ProcessScanned accepted as scanned and
	// discarded, which no worker sees; Stats, ExportState and so a hot-swap's
	// migration fold it into the workers' counters.
	discarded atomic.Uint64

	mu     sync.RWMutex // guards closed; held (R) across worker sends
	closed bool

	// observer, when set, receives each worker batch's per-node events (see
	// SetObserver). Stored atomically so it can be attached to a manager that
	// is already processing lines (boot, hot-swap).
	observer atomic.Pointer[func(worker int, evs []core.Event)]

	// batchFree/builderFree recycle the batch shells between callers and
	// workers. Buffered channels of concrete pointer types stand in for
	// sync.Pool: Get is a non-blocking receive (a miss allocates cold),
	// Put a non-blocking send (overflow is left to the GC), and no value ever
	// crosses an interface boundary on the hot path.
	batchFree   chan *eventBatch
	builderFree chan *batchBuilder
}

type managerWorker struct {
	index int
	in    chan managerEvent

	// slots bounds the batches in flight to this worker (see
	// maxInflightBatches): dispatch takes one per batch it sends, runBatch
	// gives it back.
	slots chan struct{}

	// mu is held by the worker goroutine while it mutates pred, and by
	// Stats() while it snapshots pred's counters. It is effectively
	// uncontended on the hot path (the worker is the only steady holder).
	mu   sync.Mutex
	pred *Predictor

	// outs and events collect one batch's outputs and observer events; both
	// are reused, so they grow to the high-water batch once.
	outs   []Output
	events []core.Event
}

// managerEvent is one message to a worker: a batch of lines, or (when flush
// is non-nil) a barrier marker (see Flush) that the worker forwards through
// the results channel instead of processing it.
type managerEvent struct {
	batch *eventBatch
	flush chan<- struct{}
}

// batchEntry is one parsed line inside an eventBatch: its time, and where in
// the batch's buf its node (at off) and then its message body, still to be
// scanned by the worker, were copied.
type batchEntry struct {
	time            time.Time
	off             int
	nodeLen, msgLen int
}

// eventBatch is the share of one Process* call bound for a single worker:
// parsed lines to scan (ProcessLineBatch), or tokens already scanned
// (ProcessScanned). The caller's lines are only valid for the call, so a
// line's node and message travel in buf, which the batch owns until the
// worker has run the observer on it. Shells cycle through Manager.batchFree
// so steady-state batching never allocates.
type eventBatch struct {
	entries []batchEntry
	buf     []byte
	toks    []core.Token
}

// batchBuilder is the per-call scatter table of a ProcessLineBatch call: one
// slot per worker, filled lazily as lines route to workers, and the call's
// line parser, whose date cache carries over to the builder's next call.
// Shells cycle through Manager.builderFree.
type batchBuilder struct {
	shards []*eventBatch
	parser lexgen.LineParser
}

// maxInflightBatches bounds the batches queued to or running on one worker.
// The inbox has room for far more, but a batch carries hundreds of lines in
// storage of its own — and every shell that storage lives in stays allocated
// for reuse — so a submitter that outruns the scan workers must be stopped
// after a few thousand lines, not a few hundred batches (that window held
// the daemon's RSS at twice its working set). It cannot be much smaller
// either: with as many workers as cores the submitter shares a core with a
// worker, and a window that worker drains before the scheduler switches back
// leaves it idle — 4 and 8 batches cost 2x on a two-core host, 16 and up are
// within noise of unbounded.
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
			index: i,
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

// Workers returns the manager's predictor worker count (GOMAXPROCS already
// resolved), so a replacement manager can be built with the same count.
func (m *Manager) Workers() int { return len(m.workers) }

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
	for ev := range w.in {
		if ev.flush != nil {
			// Barrier marker: forward it through the FIFO results channel.
			// When the consumer acks it, every output this worker emitted
			// before the marker has been received.
			m.results <- Output{flush: ev.flush}
			continue
		}
		m.runBatch(w, ev.batch)
	}
}

// runBatch processes one delivered batch: it scans the parsed lines (a
// pre-scanned batch arrives as tokens) and feeds each line to the parse in
// order, holding w.mu once for the whole group. Outputs are sent after the
// lock is released (Stats callers are never blocked behind a full results
// channel); the observer runs last, off the prediction path but before the
// worker's next message. Only then is the batch recycled: the observer's
// events name their nodes by views of its storage.
//
//aarohi:hotpath
func (m *Manager) runBatch(w *managerWorker, eb *eventBatch) {
	obs := m.observer.Load()
	w.mu.Lock()
	for i := range eb.entries {
		e := &eb.entries[i]
		node := eb.buf[e.off : e.off+e.nodeLen]
		tok := core.Token{Phrase: core.NoPhrase, Time: e.time, Node: bufString(node)}
		if id, ok := w.pred.Scanner().ScanBytes(eb.buf[e.off+e.nodeLen : e.off+e.nodeLen+e.msgLen]); ok {
			tok.Phrase = id
		}
		m.feed(w, tok, obs != nil)
	}
	for _, tok := range eb.toks {
		m.feed(w, tok, obs != nil)
	}
	w.mu.Unlock()
	<-w.slots
	for i := range w.outs {
		m.results <- w.outs[i]
		w.outs[i] = Output{} // drop the Prediction/Failure pointers we retain
	}
	w.outs = w.outs[:0]
	if obs != nil && len(w.events) > 0 {
		(*obs)(w.index, w.events)
		w.events = w.events[:0]
	}
	m.putBatch(eb)
}

// bufString returns b, a node's bytes in an eventBatch's buf, as a string
// without copying. The string lives as long as the batch: from the worker's
// scan to the observer's return, after which putBatch recycles buf. The
// predictor and the arbiter copy a node the first time they keep it.
func bufString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// feed hands one parseable line's token to w's parse — a core.NoPhrase token
// is counted as scanned and discarded — collecting the output it produced
// and, when observed, the line's heartbeat followed by that output. Caller
// holds w.mu.
//
//aarohi:hotpath
func (m *Manager) feed(w *managerWorker, tok core.Token, observed bool) {
	p := w.pred
	p.linesScanned++
	if observed {
		w.events = append(w.events, core.Event{Kind: core.EventBeat, Node: tok.Node, Time: tok.Time})
	}
	if tok.Phrase == core.NoPhrase {
		p.discarded++
		return
	}
	p.tokens++
	out := p.processToken(tok)
	if pr := out.Prediction; pr != nil && observed {
		w.events = append(w.events, core.Event{Kind: core.EventPrediction, Node: pr.Node, Time: pr.MatchedAt, Chain: pr.ChainName})
	}
	if f := out.Failure; f != nil && observed {
		w.events = append(w.events, core.Event{Kind: core.EventFailure, Node: f.Node, Time: f.Time})
	}
	if out.Prediction != nil || out.Failure != nil {
		out.Model = m.model.fpHex
		w.outs = append(w.outs, out)
	}
}

// Results delivers predictions and observed failures. Close arranges for it
// to be closed once every pending event has drained through the workers —
// which may happen after Close has already returned, so consume with range
// rather than assuming the channel is closed when Close returns.
func (m *Manager) Results() <-chan Output { return m.results }

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

// SetObserver registers fn to receive, per node in stream order, every
// parseable line's heartbeat (core.EventBeat) followed by the prediction and
// failure the line produced. Each worker calls fn once per batch with its
// index, after the batch's outputs are on Results and before its next
// message, so fn has seen every line submitted before a Flush when it
// returns. Calls from different workers run concurrently; a node's events
// come from its one worker. evs and the events' Node strings are valid only
// until fn returns: the slice is reused and the nodes are views of the
// batch's storage, which is recycled after the call, so fn copies what it
// keeps. nil clears the hook.
func (m *Manager) SetObserver(fn func(worker int, evs []core.Event)) {
	if fn == nil {
		m.observer.Store(nil)
		return
	}
	m.observer.Store(&fn)
}

// ProcessLine hands one raw log line to its node's worker as a batch of one.
// A line that does not parse returns its parse error. Safe for concurrent
// use; returns ErrClosed after Close.
func (m *Manager) ProcessLine(line string) error {
	one := [1]string{line}
	if perrs, err := m.ProcessLineBatch(one[:]); perrs == 0 || err != nil {
		return err
	}
	_, _, _, err := lexgen.ParseLine(line)
	return err
}

// ProcessLineBatch routes a group of raw log lines in one pass: lines are
// parsed caller-side, scattered into per-worker batches by node-ID hash, and
// delivered with one channel send per worker. Scanning happens inside the
// workers, in parallel.
//
// Malformed lines are skipped and counted in parseErrs. After Close the whole
// batch is rejected with ErrClosed and nothing is enqueued. Lines of one
// batch reach each node's worker in slice order; ordering across concurrent
// callers is unspecified. lines need only be valid until the call returns:
// each line's node and message are copied into the batch bound for its
// worker. Safe for concurrent use.
//
//aarohi:hotpath
func (m *Manager) ProcessLineBatch(lines []string) (parseErrs int, err error) {
	if len(lines) == 0 {
		return 0, nil
	}
	b := m.getBuilder()
	n := 0
	for _, line := range lines {
		ts, node, msg, perr := b.parser.Parse(line)
		if perr != nil {
			parseErrs++
			continue
		}
		eb := m.shardOf(b, node)
		off := len(eb.buf)
		if off+len(node)+len(msg) > cap(eb.buf) || len(eb.entries) == cap(eb.entries) {
			eb.grow(len(node)+len(msg), lines, len(m.workers))
		}
		eb.buf = append(append(eb.buf, node...), msg...)
		eb.entries = append(eb.entries, batchEntry{time: ts, off: off, nodeLen: len(node), msgLen: len(msg)})
		n++
	}
	if n == 0 {
		m.putBuilder(b)
		return parseErrs, nil
	}
	return parseErrs, m.dispatch(b, n, 0)
}

// grow is the cold path of ProcessLineBatch's copy-in: it makes room in eb
// for one more line of n bytes, jumping to an even share of the call's lines
// across the workers instead of doubling up from nothing, so a shell reaches
// its working size in one or two allocations, not a dozen.
func (eb *eventBatch) grow(n int, lines []string, workers int) {
	if len(eb.buf)+n > cap(eb.buf) {
		bytes := 0
		for _, line := range lines {
			bytes += len(line)
		}
		buf := make([]byte, len(eb.buf), max(len(eb.buf)+n, 2*cap(eb.buf), bytes/workers))
		copy(buf, eb.buf)
		eb.buf = buf
	}
	if len(eb.entries) == cap(eb.entries) {
		entries := make([]batchEntry, len(eb.entries), max(1, 2*cap(eb.entries), len(lines)/workers))
		copy(entries, eb.entries)
		eb.entries = entries
	}
}

// shardOf returns the batch of b bound for node's worker, taking a shell from
// the freelist the first time the worker is hit.
//
//aarohi:hotpath
func (m *Manager) shardOf(b *batchBuilder, node string) *eventBatch {
	eb := &b.shards[fnvIndex(node, len(m.workers))]
	if *eb == nil {
		*eb = m.getBatch()
	}
	return *eb
}

// dispatch sends every batch of b to its worker, n lines in all, and counts
// discarded lines that ride no batch, while holding the read side of the
// close lock, so a concurrent Close can never close a worker channel
// mid-send. b is nil when there is no batch to send. After Close nothing is
// sent, nothing is counted, and the shells go back to the freelist.
//
//aarohi:hotpath
func (m *Manager) dispatch(b *batchBuilder, n, discarded int) error {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		if b != nil {
			for i, eb := range b.shards {
				if eb != nil {
					b.shards[i] = nil
					m.putBatch(eb)
				}
			}
			m.putBuilder(b)
		}
		return ErrClosed
	}
	// Count the whole group before the first enqueue: inside the RLock with
	// closed == false delivery is guaranteed, and counting first keeps the
	// invariant Accepted() >= processed at every instant (Stats readers
	// observe the two in that order).
	m.accepted.Add(uint64(n + discarded))
	if discarded > 0 {
		m.discarded.Add(uint64(discarded))
	}
	if b == nil {
		m.mu.RUnlock()
		return nil
	}
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
	return nil
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
	recycle.Release(eb.buf)
	clear(eb.toks) // drop the scan stage's node strings before pooling
	eb.entries, eb.buf, eb.toks = eb.entries[:0], eb.buf[:0], eb.toks[:0]
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
	// Tokens are the lines that tokenized, in stream order. A scan that keeps
	// every parseable line for a manager's observer also lists the lines that
	// matched no template here, as core.NoPhrase tokens. Each token owns its
	// Node string.
	Tokens []core.Token
	// Discarded counts the parseable lines that matched no template and are
	// not in Tokens.
	Discarded int
	// ParseErrors counts the lines that did not parse.
	ParseErrors int
}

// ErrModelMismatch is returned by ProcessScanned for a batch scanned under a
// model other than the manager's.
var ErrModelMismatch = errors.New("predictor: batch was scanned under another model")

// ProcessScanned is ProcessLineBatch for lines already scanned: the tokens
// are scattered by the same per-node placement and reach each node's worker
// in slice order, and the discarded lines are counted as scanned and
// discarded by the manager itself — a count-only call takes no batch and
// wakes no worker — so outputs, Stats, Accepted and snapshots are exactly
// those of handing the raw lines to ProcessLineBatch. The observer sees a
// heartbeat for every token, so a scan that keeps the discarded lines as
// core.NoPhrase tokens gives it what ProcessLineBatch would.
//
// parseErrs is s.ParseErrors, reported as ProcessLineBatch reports a batch's
// malformed lines. After Close the whole batch is rejected with ErrClosed and
// nothing is counted. s is not retained. Safe for concurrent use.
func (m *Manager) ProcessScanned(s *Scanned) (parseErrs int, err error) {
	if s.Model == nil || s.Model.fingerprint != m.model.fingerprint {
		return s.ParseErrors, ErrModelMismatch
	}
	if len(s.Tokens)+s.Discarded == 0 {
		return s.ParseErrors, nil
	}
	var b *batchBuilder
	if len(s.Tokens) > 0 {
		b = m.getBuilder()
		for _, tok := range s.Tokens {
			eb := m.shardOf(b, tok.Node)
			eb.toks = append(eb.toks, tok)
		}
	}
	return s.ParseErrors, m.dispatch(b, len(s.Tokens), s.Discarded)
}

// Accepted returns the number of lines Process* has successfully enqueued.
// Once Results has closed (all workers drained), Stats().LinesScanned equals
// Accepted() exactly — the invariant that no accepted line is lost or
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
		//aarohi:allow lockblock flush markers ride the same drained worker queues as batches; see dispatch
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

// Stats aggregates the counters of every worker and the lines ProcessScanned
// counted as discarded without one. Safe to call at any time —
// concurrently with Process* and Close — and returns a consistent per-worker
// snapshot (each worker is paused briefly between events while its counters
// are read).
func (m *Manager) Stats() Stats {
	var st Stats
	for _, w := range m.workers {
		w.mu.Lock()
		st.Add(w.pred.Stats())
		w.mu.Unlock()
	}
	d := int(m.discarded.Load())
	st.LinesScanned += d
	st.Discarded += d
	return st
}
