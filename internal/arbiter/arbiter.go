// Package arbiter turns the predictor's raw accept events into
// operator-consumable scored alerts — ROADMAP item 3's ensemble layer.
//
// The parser answers "chain X accepted on node N"; a fleet operator needs
// "node N fails within M minutes with probability p, ranked by criticality".
// The arbiter fuses three independent evidence sources per node with a
// Noisy-OR model (the Predictive Bayesian Arbitration shape):
//
//   - chain-accept evidence: each live prediction contributes its chain's
//     historical precision (a Beta-posterior estimate updated online from
//     whether an observed failure followed within the horizon),
//   - heartbeat evidence: a phi-accrual failure detector over the node's
//     log-line inter-arrival times (every parseable line is a liveness
//     sample), with cold-restart window resets and an exponential guard
//     tail so phi keeps discriminating deep silences,
//   - flap evidence: a Weibull stability phase over the node's recent
//     uptime-before-crash history — a node that just restarted after a
//     string of crashes is not trusted merely because it is emitting again.
//
// The fused probability is calibrated (it never leaves [0,1] and is monotone
// in each source — see FuseNoisyOR and the property tests); the ranking
// score additionally multiplies in a configurable per-node criticality tier
// weight, so the probability stays comparable across nodes while the
// ordering reflects what the operator cares about most.
//
// Per-node events must arrive in stream order: a node's heartbeat for line
// i, then the prediction and failure line i produced, then line i+1's
// heartbeat. Phi's cold-restart reset and the flap history read that order —
// a failure observed after the node's restart traffic would leave the node
// down, or restart it at the wrong line. The daemon meets the precondition by
// construction: a node belongs to one predictor worker, which sees the node's
// lines in order and feeds the arbiter itself (Observe). Given it, the state
// depends only on event timestamps, never on how the feeders of different
// nodes interleave or on the wall clock, so recovered-after-SIGKILL scores
// reproduce an uninterrupted run exactly (see the crash test).
package arbiter

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Config parameterizes an Arbiter. The zero value is usable: New applies
// the defaults documented per field.
type Config struct {
	// WindowSize is the per-node sliding window of heartbeat inter-arrival
	// samples (default 64).
	WindowSize int
	// MinSamples is the minimum number of inter-arrival samples before phi
	// is reported; below it the heartbeat source contributes nothing
	// (default 8).
	MinSamples int
	// MinSigma floors the interval standard deviation so a perfectly
	// regular heartbeat cannot make phi explode on microscopic jitter
	// (default 100ms).
	MinSigma time.Duration
	// PhiCap bounds the reported phi value (default 16 ≈ "the next line is
	// later than everything the model can express").
	PhiCap float64
	// PhiHalf is the phi value mapped to heartbeat probability 0.5 by the
	// soft threshold p = phi/(phi+PhiHalf) (default 4, i.e. a silence past
	// the 1-in-10⁴ quantile of the learned gap distribution).
	PhiHalf float64
	// Horizon is the prediction window M: a chain accept is evidence that
	// the node fails within Horizon, and resolves to a true positive iff an
	// observed failure lands inside it (default 10m).
	Horizon time.Duration
	// AlertThreshold is the minimum fused probability for a node to appear
	// in Alerts (default 0.5).
	AlertThreshold float64
	// DownEvidence is the probability contributed by an observed terminal
	// failure for Horizon after it happens (default 0.95).
	DownEvidence float64
	// StabilityLambda is the Weibull scale of the post-restart stability
	// phase: at uptime λ the instability has decayed to 1/e regardless of
	// shape (default 30m).
	StabilityLambda time.Duration
	// FlapWindow is how many recent uptime-before-crash samples are
	// retained per node (default 16).
	FlapWindow int
	// PriorTP and PriorFP are the Beta prior pseudo-counts behind each
	// chain's precision estimate (default 4 and 1: an unproven chain starts
	// at link probability 0.8).
	PriorTP, PriorFP float64
	// Criticality maps node ID to its tier (1 = most critical). Unlisted
	// nodes get tier 0 and ranking weight 1.
	Criticality map[string]int
	// TierWeights is the ranking weight per tier, indexed by tier-1
	// (default [4, 2, 1]). Tiers beyond the slice weigh 1.
	TierWeights []float64
	// MaxNodes caps tracked nodes against garbage node fields in corrupt
	// input; past it, new nodes are dropped and counted (default 65536).
	MaxNodes int
	// MaxPending caps live chain evidence per node (default 64).
	MaxPending int
	// MaxStatusNodes caps the per-node rows in Status (default 12).
	MaxStatusNodes int
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MinSigma <= 0 {
		c.MinSigma = 100 * time.Millisecond
	}
	if c.PhiCap <= 0 {
		c.PhiCap = 16
	}
	if c.PhiHalf <= 0 {
		c.PhiHalf = 4
	}
	if c.Horizon <= 0 {
		c.Horizon = 10 * time.Minute
	}
	if c.AlertThreshold <= 0 {
		c.AlertThreshold = 0.5
	}
	if c.DownEvidence <= 0 {
		c.DownEvidence = 0.95
	}
	if c.StabilityLambda <= 0 {
		c.StabilityLambda = 30 * time.Minute
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 16
	}
	if c.PriorTP <= 0 {
		c.PriorTP = 4
	}
	if c.PriorFP <= 0 {
		c.PriorFP = 1
	}
	if c.TierWeights == nil {
		c.TierWeights = []float64{4, 2, 1}
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 16
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.MaxStatusNodes <= 0 {
		c.MaxStatusNodes = 12
	}
	return c
}

// Arbiter fuses per-node evidence into calibrated failure probabilities.
// All methods are safe for concurrent use.
type Arbiter struct {
	cfg Config

	mu    sync.Mutex
	clock time.Time // stream time: the max event timestamp over all feeders
	// feeders[f] is the max event timestamp feeder f has delivered. A node's
	// chain evidence expires against the clock of the feeder that delivers
	// the node: that feeder reports the node's events in stream order, so once
	// its clock passes an expiry every failure inside the window has been
	// observed, however far other feeders have run ahead.
	feeders []time.Time
	nodes   map[string]*nodeState
	chain   map[string]*chainStat

	counts       [3]uint64 // events observed, by core.EventKind
	droppedNodes uint64
}

// chainStat is one chain's online precision ledger: a prediction becomes a
// TP when an observed failure of its node lands within the horizon, an FP
// when the horizon expires empty.
type chainStat struct {
	tp, fp uint64
}

// pendingPred is one chain accept awaiting precision resolution; until the
// horizon passes it also serves as live fusion evidence. The per-node list
// is kept sorted by (MatchedAt, Chain), so chains that fire at the same
// timestamp fuse in one sequence whatever order they were reported in.
type pendingPred struct {
	chain     string
	matchedAt time.Time
}

// nodeState is everything the arbiter knows about one node. Ring capacities
// are fixed at creation; scoring statistics are recomputed from ring
// contents on demand (never maintained incrementally) so a state restored
// from a snapshot is bit-identical to one that lived through the stream.
type nodeState struct {
	node   string
	tier   int
	feeder int // the feeder that delivers the node's events

	intervals ring // inter-arrival seconds
	lastSeen  time.Time
	seen      uint64 // total heartbeats observed

	down    bool
	downAt  time.Time
	upSince time.Time
	flaps   uint64
	uptimes ring // uptime-before-crash seconds

	failTimes tring // recent observed failure times, for pending resolution
	pending   []pendingPred
}

// failRingLen sizes the per-node failure-time ring: 8 failures cover every
// resolution window a horizon can span.
const failRingLen = 8

// New builds an Arbiter; zero-value Config fields take their defaults.
func New(cfg Config) *Arbiter {
	cfg = cfg.withDefaults()
	return &Arbiter{
		cfg:   cfg,
		nodes: map[string]*nodeState{},
		chain: map[string]*chainStat{},
	}
}

// Config returns the arbiter's effective (defaulted) configuration.
func (a *Arbiter) Config() Config { return a.cfg }

// Observe applies one feeder's events in order under one lock acquisition.
// A feeder is one source of per-node stream order — in the daemon, a
// predictor worker, which owns its nodes and reports each line's heartbeat
// before what the line produced — and its index selects the clock its nodes'
// chain evidence expires against. The node strings may alias caller buffers:
// the arbiter copies what it keeps.
//
//aarohi:hotpath
func (a *Arbiter) Observe(feeder int, evs []core.Event) {
	a.mu.Lock()
	for i := range evs {
		a.observe(feeder, &evs[i])
	}
	a.mu.Unlock()
}

// ObserveHeartbeat records a liveness sample for node at stream time ts —
// every parseable log line counts — as the one feeder (feeder 0). Steady
// state allocates nothing.
//
//aarohi:hotpath
func (a *Arbiter) ObserveHeartbeat(node string, ts time.Time) {
	a.observeOne(core.Event{Kind: core.EventBeat, Node: node, Time: ts})
}

// ObservePrediction records a chain accept as the one feeder: live fusion
// evidence for the next Horizon, and a pending precision sample for the
// chain. Duplicate (chain, matchedAt) pairs — e.g. a line replayed across
// recovery — are idempotent.
func (a *Arbiter) ObservePrediction(node, chain string, matchedAt time.Time) {
	a.observeOne(core.Event{Kind: core.EventPrediction, Node: node, Time: matchedAt, Chain: chain})
}

// ObserveFailure records an observed terminal failure of node at stream
// time failAt as the one feeder: the node is down, its uptime joins the flap
// history, and pending chain evidence inside the window will resolve to a
// true positive. The node's next heartbeat is its restart, so the failure
// must come before it (the package's per-node order).
func (a *Arbiter) ObserveFailure(node string, failAt time.Time) {
	a.observeOne(core.Event{Kind: core.EventFailure, Node: node, Time: failAt})
}

//aarohi:hotpath
func (a *Arbiter) observeOne(e core.Event) {
	a.mu.Lock()
	a.observe(0, &e)
	a.mu.Unlock()
}

// observe applies one event of feeder f: it moves the stream clock and f's
// clock, and hands the event to its node. Caller holds a.mu.
//
//aarohi:hotpath
func (a *Arbiter) observe(f int, e *core.Event) {
	if int(e.Kind) >= len(a.counts) {
		return
	}
	a.counts[e.Kind]++
	if e.Time.After(a.clock) {
		a.clock = e.Time
	}
	for len(a.feeders) <= f {
		a.feeders = append(a.feeders, time.Time{})
	}
	if e.Time.After(a.feeders[f]) {
		a.feeders[f] = e.Time
	}
	ns := a.nodes[e.Node]
	if ns == nil {
		if ns = a.createNode(e.Node); ns == nil {
			return
		}
	}
	ns.feeder = f
	switch e.Kind {
	case core.EventBeat:
		ns.observeArrival(e.Time)
	case core.EventPrediction:
		a.observePrediction(ns, e.Chain, e.Time)
	case core.EventFailure:
		a.observeFailure(ns, e.Time)
	}
}

// observeArrival applies one liveness sample. Per-node events arrive in
// stream order (the package precondition) and a node's log timestamps rise,
// so a regression means replayed or duplicated input and is ignored rather
// than folded into the window. The first sample after an observed failure is
// the node's restart.
//
//aarohi:hotpath
func (ns *nodeState) observeArrival(ts time.Time) {
	if ns.seen == 0 {
		ns.upSince = ts
	} else if ts.Before(ns.lastSeen) {
		return
	} else if ns.down && ts.After(ns.downAt) {
		// Cold restart: the node is emitting again after an observed
		// failure. The silence gap is not an inter-arrival sample, and the
		// pre-crash cadence no longer describes the rebooted node — reset
		// the window and restart the stability phase.
		ns.intervals.reset()
		ns.down = false
		ns.upSince = ts
	} else {
		ns.intervals.push(ts.Sub(ns.lastSeen).Seconds())
	}
	ns.lastSeen = ts
	ns.seen++
}

// createNode is the cold first-sighting path. The key is cloned: node may
// alias a larger parsed line that must not be retained. Only the clone is
// stored, so node does not escape and a caller's string(b) conversion for
// ObserveHeartbeat can stay on its stack.
func (a *Arbiter) createNode(node string) *nodeState {
	if len(a.nodes) >= a.cfg.MaxNodes {
		a.droppedNodes++
		return nil
	}
	own := strings.Clone(node)
	ns := &nodeState{
		node: own,
		tier: a.cfg.Criticality[own],
	}
	ns.intervals.buf = make([]float64, a.cfg.WindowSize)
	ns.uptimes.buf = make([]float64, a.cfg.FlapWindow)
	ns.failTimes.buf = make([]time.Time, failRingLen)
	a.nodes[own] = ns
	return ns
}

func (a *Arbiter) observePrediction(ns *nodeState, chain string, matchedAt time.Time) {
	if a.chain[chain] == nil {
		a.chain[strings.Clone(chain)] = &chainStat{}
	}
	a.resolveNode(ns)
	if len(ns.pending) >= a.cfg.MaxPending {
		return
	}
	// Insert sorted by (matchedAt, chain): fusion and resolution then walk
	// one sequence, whichever of two same-instant chains was reported first.
	i := sort.Search(len(ns.pending), func(i int) bool {
		p := ns.pending[i]
		if !p.matchedAt.Equal(matchedAt) {
			return p.matchedAt.After(matchedAt)
		}
		return p.chain >= chain
	})
	if i < len(ns.pending) && ns.pending[i].chain == chain && ns.pending[i].matchedAt.Equal(matchedAt) {
		return
	}
	ns.pending = append(ns.pending, pendingPred{})
	copy(ns.pending[i+1:], ns.pending[i:])
	ns.pending[i] = pendingPred{chain: a.internChain(chain), matchedAt: matchedAt}
}

// internChain returns the map's own key string for chain so pendingPred
// never retains a caller-owned buffer.
func (a *Arbiter) internChain(chain string) string {
	for k := range a.chain {
		if k == chain {
			return k
		}
	}
	return strings.Clone(chain)
}

func (a *Arbiter) observeFailure(ns *nodeState, failAt time.Time) {
	if ns.down && !failAt.After(ns.downAt) {
		return // duplicate or stale failure event
	}
	ns.flaps++
	ns.failTimes.push(failAt)
	if ns.seen > 0 && !ns.upSince.After(failAt) {
		ns.uptimes.push(failAt.Sub(ns.upSince).Seconds())
	}
	ns.down = true
	ns.downAt = failAt
	a.resolveNode(ns)
}

// resolveNode settles pending chain evidence whose horizon has passed on the
// clock of the node's feeder: a failure of the node inside (matchedAt,
// matchedAt+Horizon] makes the chain's prediction a TP, an empty window an
// FP. Resolution is lazy and idempotent — by the time the feeder's clock
// passes the expiry it has delivered every failure inside the window, so
// when resolution runs does not change what it concludes.
func (a *Arbiter) resolveNode(ns *nodeState) {
	var clock time.Time
	if ns.feeder < len(a.feeders) {
		clock = a.feeders[ns.feeder]
	}
	keep := ns.pending[:0]
	for _, p := range ns.pending {
		expiry := p.matchedAt.Add(a.cfg.Horizon)
		if clock.Before(expiry) {
			keep = append(keep, p)
			continue
		}
		st := a.chain[p.chain]
		if st == nil {
			st = &chainStat{}
			a.chain[p.chain] = st
		}
		if ns.failTimes.anyIn(p.matchedAt, expiry) {
			st.tp++
		} else {
			st.fp++
		}
	}
	ns.pending = keep
}

// linkProb is the chain's Beta-posterior precision: (tp+a)/(tp+fp+a+b).
func (a *Arbiter) linkProb(st *chainStat) float64 {
	return (float64(st.tp) + a.cfg.PriorTP) /
		(float64(st.tp+st.fp) + a.cfg.PriorTP + a.cfg.PriorFP)
}

// tierWeight maps a criticality tier to its ranking weight.
func (a *Arbiter) tierWeight(tier int) float64 {
	if tier >= 1 && tier <= len(a.cfg.TierWeights) {
		return a.cfg.TierWeights[tier-1]
	}
	return 1
}
