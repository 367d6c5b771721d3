package arbiter

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
)

// Snapshot support: the arbiter's complete mutable state — phi windows,
// flap history, down/up phase, pending chain evidence and the per-chain
// precision ledger — serializes so fused scores survive a crash. Ring
// statistics are recomputed from contents (see ring.meanStd), so a restored
// arbiter scores bit-identically to one that lived through the stream.
//
// Criticality tiers are deliberately NOT state: they are configuration, and
// a restart under an updated Criticality map re-tiers every node.

// snapshotVersion guards the gob layout.
const snapshotVersion = 1

type savedState struct {
	Version                                         int
	Clock                                           time.Time
	Heartbeats, Predictions, Failures, DroppedNodes uint64
	Chains                                          []savedChain
	Nodes                                           []savedNode
}

type savedChain struct {
	Chain  string
	TP, FP uint64
}

type savedNode struct {
	Node            string
	Intervals       []float64 // oldest first
	LastSeen        time.Time
	Seen            uint64
	Down            bool
	DownAt, UpSince time.Time
	Flaps           uint64
	Uptimes         []float64
	FailTimes       []time.Time
	Pending         []savedPending
}

type savedPending struct {
	Chain     string
	MatchedAt time.Time
}

// Snapshot serializes the arbiter's state to w. It is taken after every
// feeder has flushed (the shard snapshots behind its output barrier), so
// every feeder has delivered everything up to the stream clock: Snapshot
// moves each feeder's clock up to it and settles the expired pending
// evidence. Resolution depends only on timestamps, so this canonicalizes the
// lazy ledger: identical states produce identical bytes, and what remains
// pending expires after the one stream clock the snapshot stores — which is
// why Restore can start every feeder afresh. Nodes and chains are written in
// sorted order. (An older snapshot may carry the per-node arrival ring this
// version no longer keeps; gob skips the field.)
func (a *Arbiter) Snapshot(w io.Writer) error {
	a.mu.Lock()
	for f := range a.feeders {
		a.feeders[f] = a.clock
	}
	for _, ns := range a.nodes {
		a.resolveNode(ns)
	}
	st := savedState{
		Version:      snapshotVersion,
		Clock:        a.clock,
		Heartbeats:   a.counts[core.EventBeat],
		Predictions:  a.counts[core.EventPrediction],
		Failures:     a.counts[core.EventFailure],
		DroppedNodes: a.droppedNodes,
	}
	for name, cs := range a.chain {
		st.Chains = append(st.Chains, savedChain{Chain: name, TP: cs.tp, FP: cs.fp})
	}
	for _, ns := range a.nodes {
		sn := savedNode{
			Node:     ns.node,
			LastSeen: ns.lastSeen,
			Seen:     ns.seen,
			Down:     ns.down,
			DownAt:   ns.downAt,
			UpSince:  ns.upSince,
			Flaps:    ns.flaps,
		}
		for i := 0; i < ns.intervals.n; i++ {
			sn.Intervals = append(sn.Intervals, ns.intervals.at(i))
		}
		for i := 0; i < ns.uptimes.n; i++ {
			sn.Uptimes = append(sn.Uptimes, ns.uptimes.at(i))
		}
		for i := 0; i < ns.failTimes.n; i++ {
			sn.FailTimes = append(sn.FailTimes, ns.failTimes.at(i))
		}
		for _, p := range ns.pending {
			sn.Pending = append(sn.Pending, savedPending{Chain: p.chain, MatchedAt: p.matchedAt})
		}
		st.Nodes = append(st.Nodes, sn)
	}
	a.mu.Unlock()
	sort.Slice(st.Chains, func(i, j int) bool { return st.Chains[i].Chain < st.Chains[j].Chain })
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Node < st.Nodes[j].Node })
	return gob.NewEncoder(w).Encode(st)
}

// Restore replaces the arbiter's state with a snapshot previously written
// by Snapshot. Input is treated as untrusted: the version is checked, node
// and ring counts are capped, and non-finite samples are dropped, so a
// corrupt snapshot yields an error or a sane partial state, never a panic
// or unbounded allocation.
func (a *Arbiter) Restore(r io.Reader) error {
	var st savedState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("arbiter: decoding snapshot: %w", err)
	}
	if st.Version != snapshotVersion {
		return fmt.Errorf("arbiter: snapshot version %d not supported (want %d)", st.Version, snapshotVersion)
	}
	nodes := make(map[string]*nodeState, min(len(st.Nodes), a.cfg.MaxNodes))
	chains := make(map[string]*chainStat, len(st.Chains))
	for _, sc := range st.Chains {
		if sc.Chain == "" {
			continue
		}
		chains[sc.Chain] = &chainStat{tp: sc.TP, fp: sc.FP}
	}
	for _, sn := range st.Nodes {
		if sn.Node == "" || len(nodes) >= a.cfg.MaxNodes {
			continue
		}
		ns := &nodeState{
			node:     sn.Node,
			tier:     a.cfg.Criticality[sn.Node],
			lastSeen: sn.LastSeen,
			seen:     sn.Seen,
			down:     sn.Down,
			downAt:   sn.DownAt,
			upSince:  sn.UpSince,
			flaps:    sn.Flaps,
		}
		ns.intervals.buf = make([]float64, a.cfg.WindowSize)
		ns.uptimes.buf = make([]float64, a.cfg.FlapWindow)
		ns.failTimes.buf = make([]time.Time, failRingLen)
		// The fixed-size rings keep the newest samples of whatever length a
		// (possibly hostile) snapshot holds.
		for _, v := range sn.Intervals {
			ns.intervals.pushSample(v)
		}
		for _, v := range sn.Uptimes {
			ns.uptimes.pushSample(v)
		}
		for _, t := range sn.FailTimes {
			ns.failTimes.push(t)
		}
		pend := sn.Pending
		if len(pend) > a.cfg.MaxPending {
			pend = pend[:a.cfg.MaxPending]
		}
		for _, p := range pend {
			if p.Chain == "" {
				continue
			}
			ns.pending = append(ns.pending, pendingPred{chain: p.Chain, matchedAt: p.MatchedAt})
		}
		sort.Slice(ns.pending, func(i, j int) bool {
			x, y := ns.pending[i], ns.pending[j]
			if !x.matchedAt.Equal(y.matchedAt) {
				return x.matchedAt.Before(y.matchedAt)
			}
			return x.chain < y.chain
		})
		nodes[sn.Node] = ns
	}
	a.mu.Lock()
	a.clock, a.feeders = st.Clock, nil
	a.counts = [...]uint64{core.EventBeat: st.Heartbeats, core.EventPrediction: st.Predictions, core.EventFailure: st.Failures}
	a.droppedNodes = st.DroppedNodes
	a.nodes = nodes
	a.chain = chains
	a.mu.Unlock()
	return nil
}

// pushSample pushes a restored sample unless it is negative or not finite: a
// corrupt snapshot must not poison scoring or JSON encoding.
func (r *ring) pushSample(v float64) {
	if !math.IsInf(v, 0) && !math.IsNaN(v) && v >= 0 {
		r.push(v)
	}
}
