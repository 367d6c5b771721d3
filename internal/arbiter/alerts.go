package arbiter

import (
	"sort"
	"time"

	"repro/internal/core"
)

// Alert is one scored, ranked node-failure alert: the fused calibrated
// probability that the node fails within the horizon, the per-source
// breakdown it came from, and the criticality-weighted ranking score.
type Alert struct {
	Node string `json:"node"`
	// Score ranks the alert: Probability × criticality tier weight.
	Score float64 `json:"score"`
	// Probability is the fused Noisy-OR probability, always in [0,1].
	Probability float64 `json:"probability"`
	Tier        int     `json:"tier,omitempty"`
	// Phi and PHeartbeat describe the heartbeat source; PFlap the
	// post-restart stability source.
	Phi        float64   `json:"phi"`
	PHeartbeat float64   `json:"p_heartbeat"`
	PFlap      float64   `json:"p_flap"`
	Down       bool      `json:"down,omitempty"`
	Flaps      uint64    `json:"flaps,omitempty"`
	LastSeen   time.Time `json:"last_seen"`
	// Chains lists the live chain-accept evidence, oldest first.
	Chains []ChainEvidence `json:"chains,omitempty"`
}

// ChainEvidence is one unexpired chain accept contributing to an alert.
type ChainEvidence struct {
	Chain string `json:"chain"`
	// Probability is the chain's Beta-posterior precision (its Noisy-OR
	// link probability).
	Probability float64   `json:"probability"`
	MatchedAt   time.Time `json:"matched_at"`
}

// Alerts returns the current ranked alerts: every node whose fused
// probability meets the alert threshold, sorted by score descending with
// node ID as the tiebreaker (deterministic order for golden tests and
// subscription consumers).
func (a *Arbiter) Alerts() []Alert { return a.AlertsInto(nil) }

// AlertsInto appends the current ranked alerts to dst and returns it.
// Passing a recycled dst[:0] makes steady-state scoring allocation-free:
// slot contents (including each alert's Chains backing array) are reused.
//
//aarohi:hotpath
func (a *Arbiter) AlertsInto(dst []Alert) []Alert {
	base := len(dst)
	a.mu.Lock()
	// Settle expired chain evidence across all nodes first: scoring then
	// sees one coherent precision ledger whatever the map iteration order.
	for _, ns := range a.nodes {
		a.resolveNode(ns)
	}
	for _, ns := range a.nodes {
		n := len(dst)
		if n < cap(dst) {
			dst = dst[:n+1] // reuse the slot's Chains capacity
		} else {
			var zero Alert
			dst = append(dst, zero)
		}
		a.scoreNode(ns, &dst[n])
		if dst[n].Probability < a.cfg.AlertThreshold {
			dst = dst[:n]
		}
	}
	a.mu.Unlock()
	// Insertion sort (stable, allocation-free): score descending, node
	// ascending. The (score, node) key is a total order, so the result is
	// identical whatever order the node map yielded.
	for i := base + 1; i < len(dst); i++ {
		for j := i; j > base && alertLess(&dst[j], &dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

//aarohi:hotpath
func alertLess(x, y *Alert) bool {
	if x.Score != y.Score {
		return x.Score > y.Score
	}
	return x.Node < y.Node
}

// scoreNode fills al with ns's current fused assessment. The Noisy-OR
// product multiplies sources in a fixed sequence — heartbeat, down, flap,
// then chain evidence in (matchedAt, chain) order — so the floating-point
// result is independent of event delivery order. Caller holds a.mu and has
// resolved pending evidence.
//
//aarohi:hotpath
func (a *Arbiter) scoreNode(ns *nodeState, al *Alert) {
	al.Node = ns.node
	al.Tier = ns.tier
	al.Down = ns.down
	al.Flaps = ns.flaps
	al.LastSeen = ns.lastSeen
	al.Chains = al.Chains[:0]

	al.Phi = a.nodePhi(ns)
	al.PHeartbeat = al.Phi / (al.Phi + a.cfg.PhiHalf)
	al.PFlap = flapRisk(ns.flaps) * a.flapInstability(ns)

	q := (1 - al.PHeartbeat)
	if ns.down && a.clock.Sub(ns.downAt) <= a.cfg.Horizon {
		q *= 1 - a.cfg.DownEvidence
	}
	q *= 1 - al.PFlap
	for _, p := range ns.pending {
		st := a.chain[p.chain]
		if st == nil {
			continue
		}
		var ce ChainEvidence
		ce.Chain = p.chain
		ce.Probability = a.linkProb(st)
		ce.MatchedAt = p.matchedAt
		al.Chains = append(al.Chains, ce)
		q *= 1 - ce.Probability
	}
	al.Probability = 1 - q
	al.Score = al.Probability * a.tierWeight(ns.tier)
}

// Probe returns the node's current fused probability (resolving its expired
// evidence first); ok is false for an untracked node.
func (a *Arbiter) Probe(node string) (p float64, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := a.nodes[node]
	if ns == nil {
		return 0, false
	}
	a.resolveNode(ns)
	var al Alert
	a.scoreNode(ns, &al)
	return al.Probability, true
}

// Status is the /statusz arbitration block.
type Status struct {
	StreamClock  time.Time     `json:"stream_clock"`
	Nodes        int           `json:"nodes"`
	Down         int           `json:"down"`
	Heartbeats   uint64        `json:"heartbeats"`
	Predictions  uint64        `json:"predictions"`
	Failures     uint64        `json:"failures"`
	DroppedNodes uint64        `json:"dropped_nodes,omitempty"`
	Chains       []ChainStatus `json:"chains,omitempty"`
	// Top lists the highest-probability nodes (capped at MaxStatusNodes)
	// with their live phi, whatever the alert threshold.
	Top []NodeStatus `json:"top,omitempty"`
}

// ChainStatus is one chain's precision ledger.
type ChainStatus struct {
	Chain    string  `json:"chain"`
	TP       uint64  `json:"tp"`
	FP       uint64  `json:"fp"`
	LinkProb float64 `json:"link_probability"`
}

// NodeStatus is one node's live arbitration state.
type NodeStatus struct {
	Node        string    `json:"node"`
	Phi         float64   `json:"phi"`
	Probability float64   `json:"probability"`
	Score       float64   `json:"score"`
	Tier        int       `json:"tier,omitempty"`
	Down        bool      `json:"down,omitempty"`
	Flaps       uint64    `json:"flaps,omitempty"`
	Samples     int       `json:"samples"`
	LastSeen    time.Time `json:"last_seen"`
}

// Status assembles the arbitration block: aggregate counters, the per-chain
// precision ledger, and the top nodes by fused probability. It is StatusOf
// over this one arbiter.
func (a *Arbiter) Status() Status { return StatusOf(a) }

// StatusOf assembles one arbitration block over arbiters that partition the
// node space (a daemon's shards) and share one Config. Counters sum and the
// stream clock is the latest; chain ledgers merge by name, with the link
// probability recomputed from the summed tp/fp; the top nodes merge in Alerts
// order, capped at MaxStatusNodes. Over one arbiter the block is its own.
func StatusOf(arbs ...*Arbiter) Status {
	var st Status
	if len(arbs) == 0 {
		return st
	}
	ledger := make(map[string]*chainStat)
	for _, a := range arbs {
		a.addStatus(&st, ledger)
	}
	for name, cs := range ledger {
		st.Chains = append(st.Chains, ChainStatus{
			Chain: name, TP: cs.tp, FP: cs.fp, LinkProb: arbs[0].linkProb(cs),
		})
	}
	sort.Slice(st.Chains, func(i, j int) bool { return st.Chains[i].Chain < st.Chains[j].Chain })
	sort.Slice(st.Top, func(i, j int) bool {
		x, y := st.Top[i], st.Top[j]
		if x.Score != y.Score {
			return x.Score > y.Score
		}
		return x.Node < y.Node
	})
	if n := arbs[0].cfg.MaxStatusNodes; len(st.Top) > n {
		st.Top = st.Top[:n]
	}
	return st
}

// addStatus folds a's counters, chain ledger and scored nodes into st and
// ledger.
func (a *Arbiter) addStatus(st *Status, ledger map[string]*chainStat) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.clock.After(st.StreamClock) {
		st.StreamClock = a.clock
	}
	st.Nodes += len(a.nodes)
	st.Heartbeats += a.counts[core.EventBeat]
	st.Predictions += a.counts[core.EventPrediction]
	st.Failures += a.counts[core.EventFailure]
	st.DroppedNodes += a.droppedNodes
	// Settle expired chain evidence first, as Alerts does, so the ledger
	// reported below already counts it.
	for _, ns := range a.nodes {
		a.resolveNode(ns)
	}
	for name, cs := range a.chain {
		sum := ledger[name]
		if sum == nil {
			sum = &chainStat{}
			ledger[name] = sum
		}
		sum.tp += cs.tp
		sum.fp += cs.fp
	}
	var al Alert
	for _, ns := range a.nodes {
		if ns.down {
			st.Down++
		}
		a.scoreNode(ns, &al)
		st.Top = append(st.Top, NodeStatus{
			Node: ns.node, Phi: al.Phi, Probability: al.Probability,
			Score: al.Score, Tier: ns.tier, Down: ns.down, Flaps: ns.flaps,
			Samples: ns.intervals.n, LastSeen: ns.lastSeen,
		})
	}
}
