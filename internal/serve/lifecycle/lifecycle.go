// Package lifecycle drives the daemon's shard set through its life: boot
// recovery (per-shard journal replay plus manifest reconciliation), periodic
// snapshot scheduling, model hot-swap / rollback / shadow evaluation across
// every shard, and the registry of admitted model versions. It sits above
// shard and below serve: it orchestrates shards but knows nothing about
// transports, queues or HTTP.
package lifecycle

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/predictor"
	"repro/internal/registry"
	"repro/internal/serve/shard"
	"repro/internal/vet"
)

// ModelStatus is the /statusz model block.
type ModelStatus struct {
	Active           string            `json:"active"`
	RulesFingerprint string            `json:"rules_fingerprint"`
	Base             string            `json:"base,omitempty"`
	Versions         int               `json:"versions"`
	Swaps            int64             `json:"swaps"`
	LastSwap         *shard.SwapReport `json:"last_swap,omitempty"`
	// VetSeconds and CompileSeconds say where the active version's boot
	// time went: its admission vet (absent when this process did not vet
	// it) and its one compile, shared by every shard and worker.
	VetSeconds     float64 `json:"vet_seconds,omitempty"`
	CompileSeconds float64 `json:"compile_seconds,omitempty"`
}

// ShadowStatus is the /statusz shadow block: the candidate model's identity
// plus the live agreement report against the active model (summed across
// shards when several run).
type ShadowStatus struct {
	Fingerprint      string `json:"fingerprint"`
	RulesFingerprint string `json:"rules_fingerprint"`
	// StateCarried says whether the shadow adopted the primary's in-flight
	// parse state when it started (same automaton) or began from reset nodes.
	StateCarried bool    `json:"state_carried"`
	SinceSeconds float64 `json:"since_seconds"`
	// Agreement counters: a prediction agreed when both models emitted the
	// same (node, chain) pair; pending counts are emissions still waiting for
	// their counterpart.
	PrimaryPredictions int64 `json:"primary_predictions"`
	ShadowPredictions  int64 `json:"shadow_predictions"`
	Agreed             int64 `json:"agreed"`
	PendingPrimary     int   `json:"pending_primary"`
	PendingShadow      int   `json:"pending_shadow"`
	// Manager is the shadow predictor's live counters.
	Manager predictor.Stats `json:"manager"`
}

// Config parameterizes a Group.
type Config struct {
	// SnapshotInterval is the period between automatic snapshots (0 disables
	// the loop; shards still snapshot at shutdown).
	SnapshotInterval time.Duration
	// Logf receives operational messages; must be non-nil.
	Logf func(format string, args ...any)
}

// Group is the one owner of every shard the daemon serves: the boot shards
// and the shards adopted from dead peers (takeover.go). Boot, snapshots, the
// final checkpoint and shutdown visit all of them — boot shards in index
// order, then adopted ones in (peer, index) order; swaps and shadow
// evaluation fan out over the boot shards so they stay on one model version.
type Group struct {
	cfg    Config
	shards []*shard.Local // boot shards, immutable after NewGroup

	// adopted maps a dead peer to its shards in the peer's index order (nil
	// while the claiming takeover runs; a nil entry failed to open).
	// adoptedCh is closed and replaced on each adoption; finished is set by
	// FinishIngest, after which no peer is adopted. All guarded by adoptMu.
	adoptMu   sync.Mutex
	adopted   map[string][]*shard.Local
	adoptedCh chan struct{}
	finished  bool

	// reg is the admitted-model store, opened by OpenRegistry.
	// swapMu serializes swaps, shadow starts/stops and reloads.
	reg      *registry.Registry
	swapMu   sync.Mutex
	swaps    atomic.Int64
	lastSwap atomic.Pointer[shard.SwapReport]

	// Shadow identity, guarded by swapMu. The per-shard shadow managers live
	// in the shards; the shared tracker pairs predictions across all of them.
	shadowFP      string
	shadowRules   string
	shadowSince   time.Time
	shadowCarried bool
	shadowTracker *shard.Tracker

	snapStop     chan struct{}
	snapLoopDone chan struct{}
}

// NewGroup builds a Group over the daemon's shards (index order).
func NewGroup(shards []*shard.Local, cfg Config) *Group {
	return &Group{
		cfg:       cfg,
		shards:    shards,
		adopted:   make(map[string][]*shard.Local),
		adoptedCh: make(chan struct{}),
	}
}

// Shards returns every shard the Group owns: the boot shards in index order,
// then the adopted ones in (peer, index) order.
func (g *Group) Shards() []*shard.Local {
	all := append([]*shard.Local(nil), g.shards...)
	_, adopted := g.adoptedPeers()
	for _, list := range adopted {
		all = append(all, list...)
	}
	return all
}

// Registry exposes the model store.
func (g *Group) Registry() *registry.Registry { return g.reg }

// OpenRegistry opens the model store (under dataDir/models, in memory when
// dataDir is empty) and admits the boot version: the model shard 0's Manager
// runs. Called before any shard goroutine launches. Policy: the boot model
// is always admitted (vet-gated: a rejected model fails with
// registry.ErrRejected), but auto-activated only when the manifest has no
// active version yet — after that, the persisted manifest (reconciled
// against the journal by Boot) decides which model serves.
func (g *Group) OpenRegistry(dataDir string) error {
	dir := ""
	if dataDir != "" {
		dir = filepath.Join(dataDir, "models")
	}
	reg, err := registry.Open(dir)
	if err != nil {
		return err
	}
	// Admission keeps the boot manager's compiled form rather than compiling
	// the same model again.
	entry, _, err := reg.PutCompiled(g.shards[0].Manager().Model(), "boot")
	if err != nil {
		return fmt.Errorf("serve: admitting boot model: %w", err)
	}
	if reg.Active() == "" {
		if err := reg.Activate(entry.Fingerprint); err != nil {
			return fmt.Errorf("serve: activating boot model: %w", err)
		}
	}
	g.reg = reg
	return nil
}

// Boot recovers every shard (snapshot restore + journal replay), then makes
// the set consistent: the manifest reconciles to what shard 0's journal
// converged on (journal wins over manifest), and any shard whose journal
// ended under a different model — a crash between per-shard swaps — is
// swapped forward to match.
func (g *Group) Boot() error {
	for _, sh := range g.shards {
		if err := sh.Open(g.reg); err != nil {
			return err
		}
	}
	model := g.shards[0].Manager().Model()
	cur := model.FingerprintHex()
	if g.reg.Active() != cur {
		g.cfg.Logf("serve: manifest names %s but the journal ends under %s; reconciling", g.reg.Active(), cur)
		if err := g.reg.Activate(cur); err != nil {
			g.cfg.Logf("serve: reconciling manifest: %v", err)
		}
	}
	for _, sh := range g.shards[1:] {
		fp := sh.Manager().FingerprintHex()
		if fp == cur {
			continue
		}
		// The crash hit between per-shard swaps: finish the interrupted swap
		// on this shard (its journal gains the epoch record it missed).
		g.cfg.Logf("serve: shard %d journal ends under %s, aligning to %s", sh.Index(), fp, cur)
		if _, err := sh.SwapModel(model); err != nil {
			return fmt.Errorf("serve: aligning shard %d to %s: %w", sh.Index(), cur, err)
		}
	}
	return nil
}

// StartSnapshots launches the periodic snapshot loop (no-op when the
// interval is 0).
func (g *Group) StartSnapshots() {
	if g.cfg.SnapshotInterval <= 0 {
		return
	}
	g.snapStop = make(chan struct{})
	g.snapLoopDone = make(chan struct{})
	go g.snapshotLoop()
}

// StopSnapshots stops the loop started by StartSnapshots (idempotent).
func (g *Group) StopSnapshots() {
	if g.snapStop == nil {
		return
	}
	close(g.snapStop)
	<-g.snapLoopDone
	g.snapStop = nil
}

// SnapshotAll checkpoints every shard, logging (not aborting on) per-shard
// failures — a shard that misses a snapshot just replays a longer tail.
func (g *Group) SnapshotAll() {
	for _, sh := range g.Shards() {
		if err := sh.Snapshot(); err != nil {
			g.cfg.Logf("serve: snapshot: %v", err)
		}
	}
}

// FinishIngest runs once the last line has been submitted: every shard takes
// its final checkpoint (unless skipped — crash-recovery tests emulate a
// kill) and closes its manager. No peer is adopted afterwards.
func (g *Group) FinishIngest(skipFinalSnapshot bool) {
	g.adoptMu.Lock()
	g.finished = true
	g.adoptMu.Unlock()
	for _, sh := range g.Shards() {
		sh.FinishIngest(skipFinalSnapshot)
	}
}

// Close tears every shard down after FinishIngest: shadows are discarded,
// fan-outs drain and journals close (each shard logs its own close error).
func (g *Group) Close() {
	for _, sh := range g.Shards() {
		sh.Close()
	}
}

func (g *Group) snapshotLoop() {
	defer close(g.snapLoopDone)
	t := time.NewTicker(g.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.SnapshotAll()
		case <-g.snapStop:
			return
		}
	}
}

// LoadModel admits a model version (vet-gated; ErrRejected carries the
// report) and optionally hot-swaps every shard to it. This is the engine
// behind POST /model and the SIGHUP/-watch reload path.
func (g *Group) LoadModel(m registry.Model, source string, activate bool) (registry.Entry, *vet.Report, *shard.SwapReport, error) {
	entry, rep, err := g.reg.Put(m, source)
	if err != nil {
		return entry, rep, nil, err
	}
	if !activate {
		return entry, rep, nil, nil
	}
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	sw, err := g.swapLocked(entry.Fingerprint, source, func() error {
		return g.reg.Activate(entry.Fingerprint)
	})
	return entry, rep, sw, err
}

// ActivateModel hot-swaps every shard to an already-admitted version.
func (g *Group) ActivateModel(fp string) (*shard.SwapReport, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	return g.swapLocked(fp, "activate", func() error { return g.reg.Activate(fp) })
}

// RollbackModel hot-swaps back to the most recently superseded version.
func (g *Group) RollbackModel() (*shard.SwapReport, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	fp, ok := g.reg.RollbackTarget()
	if !ok {
		return nil, fmt.Errorf("serve: no model version to roll back to")
	}
	return g.swapLocked(fp, "rollback", func() error { _, err := g.reg.Rollback(); return err })
}

// swapLocked is the hot-swap core (caller holds swapMu). Shards swap one at
// a time — each pauses only its own submitter at a batch boundary — and the
// manifest commits once after all of them; each shard's WAL epoch record is
// its durable commit point, so a crash mid-sequence is repaired by Boot's
// alignment pass, and a commit failure is logged and reconciled at next boot
// rather than aborting the swap.
func (g *Group) swapLocked(fp, trigger string, commit func() error) (*shard.SwapReport, error) {
	active := g.shards[0].Manager().FingerprintHex()
	if fp == active {
		// Already active; still run commit (a rollback must pop its history
		// entry even when it lands on the same fingerprint).
		rep := &shard.SwapReport{From: active, To: fp, Trigger: trigger}
		if err := commit(); err != nil {
			return nil, err
		}
		g.lastSwap.Store(rep)
		return rep, nil
	}
	if g.shadowFP == fp {
		return g.promoteLocked(fp, commit)
	}

	model, err := g.reg.Compiled(fp)
	if err != nil {
		return nil, err
	}
	agg := &shard.SwapReport{From: active, To: fp, Trigger: trigger, StateCarried: true}
	for i, sh := range g.shards {
		rep, err := sh.SwapModel(model)
		if err != nil {
			if i > 0 {
				// Earlier shards already swapped and journaled their epochs;
				// Boot's alignment pass repairs the split at next start.
				g.cfg.Logf("serve: swap to %s failed at shard %d of %d; shards disagree until restart: %v",
					fp, i, len(g.shards), err)
			}
			return nil, err
		}
		mergeSwapReports(agg, rep, i == 0)
	}
	if err := commit(); err != nil {
		g.cfg.Logf("serve: persisting activation of %s: %v (journal epoch is authoritative)", fp, err)
	}
	g.finishSwap(agg)
	return agg, nil
}

// promoteLocked swaps every shard's running shadow into the primary slot —
// warm: the shadows have been processing the same streams, so no state
// migration happens.
func (g *Group) promoteLocked(fp string, commit func() error) (*shard.SwapReport, error) {
	agg := &shard.SwapReport{
		From: g.shards[0].Manager().FingerprintHex(), To: fp,
		Trigger: "promote", Promoted: true, StateCarried: true,
	}
	for i, sh := range g.shards {
		rep, err := sh.Promote(fp)
		if err != nil {
			if i > 0 {
				g.cfg.Logf("serve: promote of %s failed at shard %d of %d; shards disagree until restart: %v",
					fp, i, len(g.shards), err)
			}
			return nil, err
		}
		mergeSwapReports(agg, rep, i == 0)
	}
	if err := commit(); err != nil {
		g.cfg.Logf("serve: persisting promotion of %s: %v (journal epoch is authoritative)", fp, err)
	}
	g.shadowFP, g.shadowRules, g.shadowTracker = "", "", nil
	g.finishSwap(agg)
	return agg, nil
}

// mergeSwapReports folds one shard's report into the aggregate: node counts
// sum, state carries only if every shard carried it, the pause is the worst
// shard's, and the epoch index is shard 0's.
func mergeSwapReports(agg, rep *shard.SwapReport, first bool) {
	agg.StateCarried = agg.StateCarried && rep.StateCarried
	agg.Promoted = agg.Promoted && rep.Promoted
	agg.MigratedNodes += rep.MigratedNodes
	agg.ResetNodes += rep.ResetNodes
	if rep.PauseSeconds > agg.PauseSeconds {
		agg.PauseSeconds = rep.PauseSeconds
	}
	if first {
		agg.WALEpochIndex = rep.WALEpochIndex
	}
}

func (g *Group) finishSwap(rep *shard.SwapReport) {
	g.swaps.Add(1)
	g.lastSwap.Store(rep)
	g.cfg.Logf("serve: model swap %s -> %s (%s): carried=%v migrated=%d reset=%d pause=%.1fms",
		rep.From, rep.To, rep.Trigger, rep.StateCarried, rep.MigratedNodes, rep.ResetNodes,
		rep.PauseSeconds*1e3)
}

// StartShadow begins evaluating an admitted version in parallel on the live
// stream, on every shard. Each shard's shadow adopts its primary's current
// parse state; predictions pair up in one shared tracker.
func (g *Group) StartShadow(fp string) (*ShadowStatus, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if g.shadowFP != "" {
		return nil, fmt.Errorf("serve: shadow %s already running (stop it first)", g.shadowFP)
	}
	if fp == g.shards[0].Manager().FingerprintHex() {
		return nil, fmt.Errorf("serve: %s is already the active model", fp)
	}
	model, err := g.reg.Compiled(fp)
	if err != nil {
		return nil, err
	}
	tr := shard.NewTracker()
	carried := true
	for i, sh := range g.shards {
		c, err := sh.StartShadow(model, tr)
		if err != nil {
			for _, started := range g.shards[:i] {
				if serr := started.StopShadow(nil); serr != nil {
					g.cfg.Logf("serve: unwinding shadow start: %v", serr)
				}
			}
			return nil, err
		}
		carried = carried && c
	}
	g.shadowFP, g.shadowRules, g.shadowSince = fp, registry.FormatFingerprint(model.RulesFingerprint()), time.Now()
	g.shadowCarried, g.shadowTracker = carried, tr
	st := g.shadowStatusLocked()
	g.cfg.Logf("serve: shadow %s started (state carried: %v)", fp, carried)
	return st, nil
}

// StopShadow discards the running shadow on every shard and returns its
// final report (each shard flushes its shadow before reporting, so the
// counters cover every line the shadows received).
func (g *Group) StopShadow() (*ShadowStatus, error) {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if g.shadowFP == "" {
		return nil, fmt.Errorf("serve: no shadow running")
	}
	var mstats predictor.Stats
	for _, sh := range g.shards {
		if err := sh.StopShadow(func(m *predictor.Manager) { mstats.Add(m.Stats()) }); err != nil {
			return nil, err
		}
	}
	st := g.shadowStatusLocked()
	st.Manager = mstats
	g.cfg.Logf("serve: shadow %s stopped", g.shadowFP)
	g.shadowFP, g.shadowRules, g.shadowTracker = "", "", nil
	return st, nil
}

// ShadowStatus assembles the live /statusz shadow block (nil when none
// runs).
func (g *Group) ShadowStatus() *ShadowStatus {
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	if g.shadowFP == "" {
		return nil
	}
	return g.shadowStatusLocked()
}

// shadowStatusLocked builds the shadow block from the group identity, the
// shared tracker and the per-shard shadow managers (caller holds swapMu).
func (g *Group) shadowStatusLocked() *ShadowStatus {
	p, s, a, pp, ps := g.shadowTracker.Counts()
	st := &ShadowStatus{
		Fingerprint:        g.shadowFP,
		RulesFingerprint:   g.shadowRules,
		StateCarried:       g.shadowCarried,
		SinceSeconds:       time.Since(g.shadowSince).Seconds(),
		PrimaryPredictions: p,
		ShadowPredictions:  s,
		Agreed:             a,
		PendingPrimary:     pp,
		PendingShadow:      ps,
	}
	for _, sh := range g.shards {
		if m := sh.ShadowManager(); m != nil {
			st.Manager.Add(m.Stats())
		}
	}
	return st
}

// ModelStatus assembles the /statusz model block.
func (g *Group) ModelStatus() *ModelStatus {
	model := g.shards[0].Manager().Model()
	return &ModelStatus{
		Active:           model.FingerprintHex(),
		RulesFingerprint: registry.FormatFingerprint(model.RulesFingerprint()),
		Base:             g.reg.Base(),
		Versions:         len(g.reg.List()),
		Swaps:            g.swaps.Load(),
		LastSwap:         g.lastSwap.Load(),
		VetSeconds:       g.reg.VetTime(model.FingerprintHex()).Seconds(),
		CompileSeconds:   model.CompileTime().Seconds(),
	}
}
