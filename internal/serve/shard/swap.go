package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/predictor"
)

// Model hot-swap, per shard. Activation is a zero-loss swap:
//
//  1. The new Manager is built cold, off the ingest path, over the compiled
//     model the caller hands in — one compiled form for every shard.
//  2. The submitter is paused at a batch boundary (snapMu) — the queue keeps
//     buffering under the configured overflow policy, so in Block mode no
//     accepted line is ever lost.
//  3. The old Manager is flushed (every output for accepted lines published)
//     and its state exported; the new Manager adopts it — whole parse stacks
//     when the compiled automaton is unchanged (same rules fingerprint),
//     per-node reset with counter continuity otherwise.
//  4. A model-epoch record is appended to the shard's WAL and force-synced —
//     the durable commit point for this shard.
//  5. The managers swap atomically and the submitter resumes on the new one.
//
// The registry manifest commit and cross-shard ordering live one layer up,
// in lifecycle; this file only knows how to swap one shard safely.

// SwapReport describes one model hot-swap (aggregated across shards by the
// lifecycle layer when more than one runs).
type SwapReport struct {
	// From and To are the model fingerprints before and after the swap.
	From string `json:"from"`
	To   string `json:"to"`
	// Trigger says what initiated the swap: "upload", "activate", "rollback",
	// "reload" or "promote".
	Trigger string `json:"trigger"`
	// Promoted is true when a running shadow manager was promoted warm — it
	// had been tracking the live stream, so no state migration was needed.
	Promoted bool `json:"promoted"`
	// StateCarried is true when in-flight parse stacks survived the swap
	// (identical automaton, or a warm promotion).
	StateCarried bool `json:"state_carried"`
	// MigratedNodes and ResetNodes count per-node drivers that carried over
	// vs. lost an in-flight partial match.
	MigratedNodes int `json:"migrated_nodes"`
	ResetNodes    int `json:"reset_nodes"`
	// PauseSeconds is how long ingest was paused at the batch boundary (the
	// swap's only service interruption; the max across shards when several
	// swap).
	PauseSeconds float64 `json:"pause_seconds"`
	// WALEpochIndex is the journal index of the model-epoch record (0 when
	// persistence is off; shard 0's index when several shards swap).
	WALEpochIndex uint64 `json:"wal_epoch_index,omitempty"`
}

// SwapModel hot-swaps this shard to an already-compiled model. The caller
// (lifecycle) serializes swaps, has ruled out the already-active and
// warm-promote cases, and commits the registry manifest afterwards — the
// shard's WAL epoch record is the durable commit point.
func (l *Local) SwapModel(model *predictor.Model) (*SwapReport, error) {
	old := l.Manager()
	fp := model.FingerprintHex()
	rep := &SwapReport{From: old.FingerprintHex(), To: fp}
	// Build the replacement before the submitter pauses.
	next := model.NewManager(old.Workers())
	// The replacement inherits the arbiter feed (shadows never do — they
	// would count every event the primary already reported twice).
	l.attachArbiter(next)

	began := time.Now()
	l.snapMu.Lock() // submitter pauses at a batch boundary
	abort := func(err error) (*SwapReport, error) {
		l.snapMu.Unlock()
		next.Close()
		return nil, err
	}
	if err := old.Flush(); err != nil {
		return abort(err)
	}
	st, err := old.ExportState()
	if err != nil {
		return abort(err)
	}
	mig, err := next.AdoptState(st)
	if err != nil {
		return abort(fmt.Errorf("serve: migrating state into %s: %w", fp, err))
	}
	rep.StateCarried = mig.StateCarried
	rep.MigratedNodes = mig.Migrated
	rep.ResetNodes = mig.Reset
	if err := l.appendEpochLocked(fp, rep); err != nil {
		return abort(err)
	}
	// Swap order matters: the fan-out re-reads the manager when a Results
	// channel closes, so the new manager must be visible before the old one
	// closes.
	l.setManager(next)
	old.Close()
	l.snapMu.Unlock()

	rep.PauseSeconds = time.Since(began).Seconds()
	return rep, nil
}

// Promote swaps the shard's running shadow manager into the primary slot —
// warm: the shadow has been processing the same stream, so its parse state
// is already current and no migration happens. The caller has verified a
// shadow runs on every shard.
func (l *Local) Promote(fp string) (*SwapReport, error) {
	old := l.Manager()
	rep := &SwapReport{From: old.FingerprintHex(), To: fp, Trigger: "promote"}
	began := time.Now()
	l.snapMu.Lock()
	sh := l.shadow
	if sh == nil || sh.fp != fp {
		l.snapMu.Unlock()
		return nil, fmt.Errorf("serve: no shadow %s running on shard %d", fp, l.cfg.Index)
	}
	if err := old.Flush(); err != nil {
		l.snapMu.Unlock()
		return nil, err
	}
	if err := sh.mgr.Flush(); err != nil {
		l.snapMu.Unlock()
		return nil, err
	}
	// Hand the shadow's Results over to the fan-out: stop its consumer while
	// nothing is being produced (submitter paused, both managers flushed).
	close(sh.stop)
	//aarohi:allow lockblock bounded handshake: the shadow consumer exits as soon as it sees stop, and the submitter (the only other snapMu holder) is paused
	<-sh.done
	if err := l.appendEpochLocked(sh.fp, rep); err != nil {
		// The consumer is already stopped; restarting it is worse than
		// finishing the promote with the epoch missing — log loudly.
		l.cfg.Logf("serve: %v (promote continues; manifest will disagree with journal until next boot)", err)
	}
	// Promotion is the moment the shadow starts feeding the arbiter: until
	// here the primary owned the arbiter feed.
	l.attachArbiter(sh.mgr)
	l.setManager(sh.mgr)
	old.Close()
	l.shadow = nil
	l.tracker.Store(nil)
	l.snapMu.Unlock()

	rep.Promoted = true
	rep.StateCarried = true
	rep.MigratedNodes = sh.mgr.Stats().Nodes
	rep.PauseSeconds = time.Since(began).Seconds()
	return rep, nil
}

// appendEpochLocked journals the model-epoch record — the swap's durable
// commit point (caller holds snapMu).
func (l *Local) appendEpochLocked(fp string, rep *SwapReport) error {
	if l.wlog == nil {
		return nil
	}
	idx, err := l.wlog.Append(encodeEpochRecord(fp))
	if err != nil {
		return fmt.Errorf("serve: journaling model epoch %s: %w", fp, err)
	}
	if err := l.wlog.Sync(); err != nil {
		l.cfg.Logf("serve: syncing model epoch: %v", err)
	}
	rep.WALEpochIndex = idx
	return nil
}

// --- shadow evaluation ---

// shadowRun is a candidate model evaluating in parallel on the live stream:
// the submitter feeds it every accepted line, its own consumer drains its
// results into the agreement tracker, and nothing it emits reaches
// subscribers.
type shadowRun struct {
	fp      string
	mgr     *predictor.Manager
	tracker *Tracker
	stop    chan struct{}
	done    chan struct{}
}

// trackerPendingCap bounds each pending map so a model that predicts wildly
// more than its counterpart cannot grow memory without bound.
const trackerPendingCap = 4096

// Tracker correlates primary and shadow predictions by (node, chain). One
// Tracker is shared by every shard while a shadow evaluation runs — a node's
// lines always route to one shard, so the pairing logic is unchanged by
// sharding.
type Tracker struct {
	mu                 sync.Mutex
	primary, shadow    int64
	agreed             int64
	pendingP, pendingS map[string]int
}

// NewTracker builds an empty agreement tracker.
func NewTracker() *Tracker {
	return &Tracker{pendingP: map[string]int{}, pendingS: map[string]int{}}
}

// Record pairs one prediction from the primary (fromPrimary) or shadow side.
func (t *Tracker) Record(out predictor.Output, fromPrimary bool) {
	if out.Prediction == nil {
		return
	}
	key := out.Prediction.Node + "\x00" + out.Prediction.ChainName
	t.mu.Lock()
	defer t.mu.Unlock()
	mine, theirs := t.pendingP, t.pendingS
	if fromPrimary {
		t.primary++
	} else {
		t.shadow++
		mine, theirs = t.pendingS, t.pendingP
	}
	if theirs[key] > 0 {
		theirs[key]--
		if theirs[key] == 0 {
			delete(theirs, key)
		}
		t.agreed++
		return
	}
	if len(mine) < trackerPendingCap {
		mine[key]++
	}
}

// Counts reports the tracker's agreement counters: predictions seen from
// each side, pairs agreed, and emissions still waiting for a counterpart.
func (t *Tracker) Counts() (primary, shadow, agreed int64, pendingP, pendingS int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.primary, t.shadow, t.agreed, len(t.pendingP), len(t.pendingS)
}

// StartShadow begins evaluating a candidate model in parallel on this
// shard's stream. The shadow adopts the primary's current parse state (whole
// when the automaton matches), then receives every line the primary does;
// its predictions feed the shared agreement tracker, never subscribers.
// Reports whether parse state carried over. The caller serializes against
// swaps and other shadow operations.
func (l *Local) StartShadow(model *predictor.Model, tr *Tracker) (bool, error) {
	cur := l.Manager()
	if cur == nil {
		return false, fmt.Errorf("serve: shard %d not started", l.cfg.Index)
	}
	mgr := model.NewManager(cur.Workers())
	sh := &shadowRun{
		fp: model.FingerprintHex(), mgr: mgr, tracker: tr,
		stop: make(chan struct{}), done: make(chan struct{}),
	}

	l.snapMu.Lock()
	if l.shadow != nil {
		l.snapMu.Unlock()
		mgr.Close()
		return false, fmt.Errorf("serve: shadow %s already running (stop it first)", l.shadow.fp)
	}
	primary := l.Manager()
	fail := func(err error) (bool, error) {
		l.snapMu.Unlock()
		mgr.Close()
		return false, err
	}
	if err := primary.Flush(); err != nil {
		return fail(err)
	}
	st, err := primary.ExportState()
	if err != nil {
		return fail(err)
	}
	mig, err := mgr.AdoptState(st)
	if err != nil {
		return fail(fmt.Errorf("serve: seeding shadow state: %w", err))
	}
	go l.shadowConsume(sh)
	l.shadow = sh
	l.tracker.Store(tr)
	l.snapMu.Unlock()
	return mig.StateCarried, nil
}

// StopShadow discards the shard's running shadow. report, when non-nil, runs
// under snapMu after the shadow's final Flush — the moment its counters are
// complete and stable — with the shadow manager as argument.
func (l *Local) StopShadow(report func(mgr *predictor.Manager)) error {
	l.snapMu.Lock()
	sh := l.shadow
	if sh == nil {
		l.snapMu.Unlock()
		return fmt.Errorf("serve: no shadow running")
	}
	// Flush while the consumer still runs, so the final report covers every
	// line the shadow received.
	if err := sh.mgr.Flush(); err != nil {
		l.snapMu.Unlock()
		return err
	}
	if report != nil {
		report(sh.mgr)
	}
	close(sh.stop)
	//aarohi:allow lockblock bounded handshake: the shadow consumer exits as soon as it sees stop; see Promote
	<-sh.done
	l.shadow = nil
	l.tracker.Store(nil)
	sh.mgr.Close()
	l.snapMu.Unlock()
	return nil
}

// ShadowManager returns the running shadow's manager (nil when none runs).
// Its Stats/Flush are safe to call; lifecycle owns start/stop.
func (l *Local) ShadowManager() *predictor.Manager {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.shadow == nil {
		return nil
	}
	return l.shadow.mgr
}

// shadowConsume drains the shadow manager's results into the agreement
// tracker until stopped (promotion hands the channel to the fan-out) or the
// manager closes.
func (l *Local) shadowConsume(sh *shadowRun) {
	defer close(sh.done)
	for {
		select {
		case out, ok := <-sh.mgr.Results():
			if !ok {
				return
			}
			if out.IsFlush() {
				out.Ack()
				continue
			}
			sh.tracker.Record(out, false)
		case <-sh.stop:
			return
		}
	}
}
