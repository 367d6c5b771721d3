// Package shard is the daemon's unit of prediction state: one Local bundles
// a predictor.Manager with its write-ahead journal, snapshots, arbiter and
// shadow evaluation — everything that must stay consistent for one partition
// of the node space. The serve layer feeds a Local through the Router (which
// implements the pipeline's Sink over a consistent-hash ring and submits
// every shard's share on the pump goroutine; a shard's parallelism is its
// Manager's predictor workers) and the lifecycle layer drives recovery, snapshots and model swaps across all
// shards. Layering: shard sits below transport, pipeline and lifecycle and
// must import none of them; it may import ring and the domain packages
// (predictor, wal, arbiter, registry).
package shard

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/arbiter"
	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/wal"
)

// Stats is a shard's row in /statusz: its live counters plus its own
// journal, recovery and arbitration blocks, the same types the daemon's top
// level folds them into.
type Stats struct {
	Index int `json:"index"`
	// Lines is the number of lines submitted to this shard, counting the
	// discarded lines CountDiscarded folded in without queueing them.
	Lines int64 `json:"lines"`
	// ParseErrors counts submitted lines the manager could not parse.
	ParseErrors int64 `json:"parse_errors"`
	// Manager is the predictor's counter snapshot.
	Manager predictor.Stats `json:"manager"`
	// WAL and Recovery are nil without a data dir; Arbiter is nil when
	// arbitration is off.
	WAL      *WALStatus      `json:"wal,omitempty"`
	Recovery *RecoveryStatus `json:"recovery,omitempty"`
	Arbiter  *arbiter.Status `json:"arbiter,omitempty"`
}

// Config parameterizes a Local shard. Callers pass already-defaulted values.
type Config struct {
	// Index is the shard's position in the daemon's shard list (0-based).
	Index int
	// Dir is the shard's private data directory (journal + snapshots live
	// under it). Empty disables persistence.
	Dir string
	// Fsync is the journal sync policy.
	Fsync wal.SyncPolicy
	// WALSegmentSize overrides the journal segment size (0 = wal default).
	WALSegmentSize int64
	// Arbiter, when non-nil, gives the shard its own failure arbiter, fed by
	// the manager's workers (Manager.SetObserver).
	Arbiter *arbiter.Config
	// Logf receives operational messages; must be non-nil.
	Logf func(format string, args ...any)
	// Publish receives every live fan-out output (predictions and failures).
	// Must be safe for concurrent use across shards; must be non-nil.
	Publish func(out predictor.Output)
}

// Local is one partition of the prediction state: the Manager plus its
// durability and arbitration state, exactly the bundle the serve monolith
// used to hold once per process. Lifecycle: New → Start (fan-out) → Open
// (restore the newest snapshot and replay the journal tail — Restore is
// boot-time only) → SubmitBatch from a single dispatcher goroutine (the
// pipeline pump, through the Router) → FinishIngest (final snapshot, manager
// closed) → Close.
type Local struct {
	cfg Config

	// mgr is the active Manager; hot-swaps replace it, so all access goes
	// through Manager()/setManager. Submitters read it under snapMu — which a
	// swap holds for its whole critical section — so a paused submitter can
	// never resume on a half-swapped manager.
	mgrMu sync.RWMutex
	mgr   *predictor.Manager

	lines       atomic.Int64
	parseErrors atomic.Int64

	// Durability state (nil / zero when Dir is unset). snapMu pairs each
	// (WAL append, ProcessLineBatch) step against snapshots and swaps.
	wlog            *wal.Log
	snapMu          sync.Mutex
	walBuf          []byte   // a batch's line records back to back, reused across batches
	walRecs         [][]byte // the records in walBuf
	markRecs        [][]byte // every element is markRecord; grows to the largest chunk's marks
	snapshots       atomic.Int64
	lastSnapshotIdx atomic.Uint64
	recovery        *RecoveryStatus

	// registry resolves model fingerprints during boot replay; set by Open.
	registry *registry.Registry

	// recoveryActive routes fan-out outputs into the recovered buffer while
	// boot-time replay runs (no listener is open yet, so nothing is lost).
	recoveryActive atomic.Bool
	recMu          sync.Mutex
	recovered      []predictor.Output

	// Shadow evaluation state: shadow is written under snapMu; tracker is the
	// shared agreement tracker (one per daemon, set while a shadow runs).
	shadow  *shadowRun
	tracker atomic.Pointer[Tracker]

	// arb fuses heartbeat phi with chain evidence into ranked alerts (nil
	// when Config.Arbiter is unset). Internally synchronized.
	arb *arbiter.Arbiter

	fanDone chan struct{}
}

// New builds a Local shard over an already-constructed Manager. The shard
// owns the Manager's lifecycle from Start onward.
func New(m *predictor.Manager, cfg Config) *Local {
	l := &Local{
		cfg:     cfg,
		mgr:     m,
		fanDone: make(chan struct{}),
	}
	if cfg.Arbiter != nil {
		l.arb = arbiter.New(*cfg.Arbiter)
		l.attachArbiter(m)
	}
	return l
}

// Start launches the fan-out. Must run before Open: replayed outputs travel
// through the fan-out into the recovered buffer, and snapshot barriers need
// its acks.
func (l *Local) Start() { go l.fanout() }

// Manager returns the active Manager (hot-swaps replace it).
func (l *Local) Manager() *predictor.Manager {
	l.mgrMu.RLock()
	defer l.mgrMu.RUnlock()
	return l.mgr
}

func (l *Local) setManager(m *predictor.Manager) {
	l.mgrMu.Lock()
	l.mgr = m
	l.mgrMu.Unlock()
}

// Arbiter returns the shard's arbiter (nil when disabled).
func (l *Local) Arbiter() *arbiter.Arbiter { return l.arb }

// Index returns the shard's position in the daemon's shard list.
func (l *Local) Index() int { return l.cfg.Index }

// Stats reports the shard's /statusz row.
func (l *Local) Stats() Stats {
	st := Stats{
		Index:       l.cfg.Index,
		Lines:       l.lines.Load(),
		ParseErrors: l.parseErrors.Load(),
		Manager:     l.Manager().Stats(),
		WAL:         l.walStatus(),
		Recovery:    l.recovery,
	}
	if l.arb != nil {
		as := l.arb.Status()
		st.Arbiter = &as
	}
	return st
}

// Flush blocks until every output for already-submitted lines is published.
func (l *Local) Flush() error { return l.Manager().Flush() }

// SubmitBatch journals and dispatches one batch under snapMu: every line is
// framed into one reused buffer, the group hits the WAL as one AppendBatch,
// and the Manager receives it as one ProcessLineBatch — the
// WAL-append-before-parse invariant, at batch granularity.
//
//aarohi:hotpath
func (l *Local) SubmitBatch(batch []string) {
	l.snapMu.Lock()
	if l.wlog != nil {
		n := 0
		for _, line := range batch {
			n += len(line) + 2 // a record is at most its line and the NUL escape
		}
		if n > cap(l.walBuf) || len(batch) > cap(l.walRecs) {
			l.growFraming(len(batch), n)
		}
		// walBuf holds the whole batch, so no append moves it: each record
		// stays a view of it.
		buf, recs := l.walBuf[:0], l.walRecs[:len(batch)]
		for i, line := range batch {
			start := len(buf)
			buf = appendLineRecord(buf, line)
			recs[i] = buf[start:]
		}
		if _, err := l.wlog.AppendBatch(recs); err != nil {
			// Journal failure is fatal for durability but not for
			// prediction: log loudly and keep serving.
			l.cfg.Logf("serve: wal append: %v", err)
		}
	}
	// snapMu also pins the manager pointer: a hot-swap holds it for its
	// whole critical section, so the submitter pauses at this batch boundary
	// and resumes on the fully swapped-in manager.
	perrs, err := l.Manager().ProcessLineBatch(batch)
	if sh := l.shadow; sh != nil {
		// The shadow sees exactly the lines the primary does; its own
		// parse errors mirror the primary's and are not double-counted.
		sh.mgr.ProcessLineBatch(batch)
	}
	l.snapMu.Unlock()
	l.lines.Add(int64(len(batch)))
	if perrs > 0 {
		l.parseErrors.Add(int64(perrs))
	}
	if err != nil {
		// ErrClosed cannot happen while the dispatcher owns the Manager
		// lifecycle; surface anything else rather than losing it.
		l.cfg.Logf("serve: batch submit: %v", err)
	}
}

// ErrEveryLine is CountDiscarded's refusal: something on the shard reads
// every line, so its discarded lines must be queued like any other.
var ErrEveryLine = errors.New("shard: every line must reach the shard")

// CountDiscarded folds k lines that the caller parsed and scanned under
// model, and that matched no template, into the shard's counts — as lines
// SubmitBatch handed to the manager and the scan then discarded — without
// queueing them. Under one snapMu hold it checks the model, journals one
// discard mark per line and counts them, so a snapshot or a swap sees the
// marks and the counts together, and a mark always lands ahead of the epoch
// record of any later model. It refuses with ErrEveryLine when something on
// the shard reads a discarded line: an arbiter (every line is a heartbeat),
// a shadow (it scans with its own model), or a journal without a model
// registry (replay could not tell which model a mark was scanned under). A
// model other than the active manager's (a hot-swap landed after the scan)
// returns predictor.ErrModelMismatch, and the caller scans the lines again.
// Safe for concurrent use.
//
//aarohi:hotpath
func (l *Local) CountDiscarded(model *predictor.Model, k int) error {
	l.snapMu.Lock()
	if l.shadow != nil || l.arb != nil || (l.wlog != nil && l.registry == nil) {
		l.snapMu.Unlock()
		return ErrEveryLine
	}
	mgr := l.Manager()
	if model == nil || model.FingerprintHex() != mgr.FingerprintHex() {
		l.snapMu.Unlock()
		return predictor.ErrModelMismatch
	}
	if l.wlog != nil {
		for len(l.markRecs) < k {
			l.markRecs = append(l.markRecs, markRecord)
		}
		if _, err := l.wlog.AppendBatch(l.markRecs[:k]); err != nil {
			l.cfg.Logf("serve: wal append: %v", err)
		}
	}
	_, err := mgr.ProcessScanned(&predictor.Scanned{Model: model, Discarded: k})
	l.snapMu.Unlock()
	if err != nil {
		return err
	}
	l.lines.Add(int64(k))
	return nil
}

// growFraming is the cold growth path of SubmitBatch's framing scratch: it
// reaches the high-water batch (lines, and bytes with room to spare) and is
// reused from then on.
func (l *Local) growFraming(lines, bytes int) {
	if bytes > cap(l.walBuf) {
		l.walBuf = make([]byte, 0, 2*bytes)
	}
	if lines > cap(l.walRecs) {
		l.walRecs = make([][]byte, lines)
	}
}

// FinishIngest runs after the last Submit call: it checkpoints the final
// state (unless skipped — crash-recovery tests emulate a kill) while the
// Manager and the fan-out its barrier needs are still alive, then closes the
// Manager, which ends the fan-out.
func (l *Local) FinishIngest(skipFinalSnapshot bool) {
	if l.wlog != nil && !skipFinalSnapshot {
		if err := l.Snapshot(); err != nil {
			l.cfg.Logf("serve: final snapshot: %v", err)
		}
	}
	l.Manager().Close()
}

// Close tears the shard down after FinishIngest: a running shadow is
// discarded (its manager closes, its consumer drains out), the fan-out is
// awaited, and the journal closes — nothing appends after the dispatcher
// stops.
func (l *Local) Close() error {
	l.snapMu.Lock()
	sh := l.shadow
	l.shadow = nil
	l.tracker.Store(nil)
	l.snapMu.Unlock()
	if sh != nil {
		sh.mgr.Close()
		<-sh.done
	}
	<-l.fanDone
	if l.wlog != nil {
		if err := l.wlog.Close(); err != nil {
			l.cfg.Logf("serve: wal close: %v", err)
			return err
		}
	}
	return nil
}

// fanout broadcasts Manager results through the Publish callback until the
// final Results channel closes (which FinishIngest triggers via Close after
// the last submit). It also acks Flush barrier markers (snapshots depend on
// this) and, during boot-time recovery, records outputs into the recovered
// buffer. The arbiter is not fed here: the workers feed it in per-node
// stream order (attachArbiter).
//
// Hot-swaps are handled generationally: a swap publishes the new manager
// (setManager) before closing the old one, so when a Results channel closes
// the loop re-reads the pointer — a changed manager means a swap, an
// unchanged one means shutdown.
func (l *Local) fanout() {
	defer close(l.fanDone)
	for {
		mgr := l.Manager()
		for out := range mgr.Results() {
			if out.IsFlush() {
				out.Ack()
				continue
			}
			if l.recoveryActive.Load() {
				l.recMu.Lock()
				l.recovered = append(l.recovered, out)
				l.recMu.Unlock()
				continue
			}
			if tr := l.tracker.Load(); tr != nil {
				tr.Record(out, true)
			}
			l.cfg.Publish(out)
		}
		if l.Manager() == mgr {
			break
		}
	}
}

// attachArbiter makes the arbiter a manager's observer: each worker feeds
// it the heartbeats and outputs of the nodes it owns, in stream order, with
// one lock acquisition per batch — replayed lines included, so a restored run
// accumulates the evidence a live run did. Called for the boot manager and
// for every replacement built by hot-swap or recovery — but never for shadow
// managers, which see the same lines as the primary and would count every
// event twice.
func (l *Local) attachArbiter(m *predictor.Manager) {
	if l.arb == nil || m == nil {
		return
	}
	m.SetObserver(l.arb.Observe)
}

// Recovered returns the outputs re-derived during boot-time replay, in
// arrival order.
func (l *Local) Recovered() []predictor.Output {
	l.recMu.Lock()
	defer l.recMu.Unlock()
	return append([]predictor.Output(nil), l.recovered...)
}
