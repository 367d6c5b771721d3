package parser

import (
	"time"

	"repro/internal/core"
	"repro/internal/lalr"
)

// MultiDriver is the alternative inference engine the paper's §III analysis
// contemplates and rejects: instead of one parse per node, it keeps a
// bounded set of concurrent parse instances, spawning a new one whenever a
// token could start a rule while others are mid-match. It therefore cannot
// miss an interleaved chain (the paper's theoretical "case 1" false
// negative) — at the cost of advancing every live instance on every token.
//
// Aarohi's design argument is that case 1 does not occur in practice, so
// the simple single-parse driver suffices; this driver exists to *measure*
// that trade-off (ablation A5): the recall difference on adversarial
// streams and the per-token cost multiplier.
type MultiDriver struct {
	rs      *core.RuleSet
	node    string
	timeout time.Duration

	instances []*multiInstance
	maxInst   int

	stats Stats
}

type multiInstance struct {
	m           *lalr.Machine
	firstAt     time.Time
	lastShiftAt time.Time
	length      int
}

// MaxInstances bounds the concurrent parses per node (the adversarial worst
// case would otherwise grow with every rule-starting token).
const MaxInstances = 16

// NewMulti returns a multi-instance driver for one node.
func NewMulti(rs *core.RuleSet, node string) *MultiDriver {
	return &MultiDriver{rs: rs, node: node, maxInst: MaxInstances, timeout: rs.MaxTimeout()}
}

// Node returns the node this driver serves.
func (d *MultiDriver) Node() string { return d.node }

// Stats returns a copy of the activity counters. Consumed counts every
// shift across all instances (the cost multiplier vs. the single driver).
func (d *MultiDriver) Stats() Stats { return d.stats }

// Active returns the number of live parse instances.
func (d *MultiDriver) Active() int { return len(d.instances) }

// Reset abandons all instances.
func (d *MultiDriver) Reset() { d.instances = d.instances[:0] }

// Feed advances every live instance with the token, prunes timed-out
// instances, and spawns a new instance when the token can start a rule. The
// first instance to complete a chain wins.
func (d *MultiDriver) Feed(tok core.Token) *Prediction {
	sym, ok := d.rs.Term(tok.Phrase)
	if !ok {
		d.stats.Irrelevant++
		return nil
	}
	d.stats.Tokens++

	// Prune instances whose last consumed phrase is stale.
	live := d.instances[:0]
	for _, inst := range d.instances {
		if tok.Time.Sub(inst.lastShiftAt) > d.timeout {
			d.stats.TimeoutResets++
			continue
		}
		live = append(live, inst)
	}
	d.instances = live

	var winner *Prediction
	startedFresh := false
	for _, inst := range d.instances {
		fresh := inst.length == 0
		switch inst.m.Feed(sym) {
		case lalr.Shifted:
			d.stats.Consumed++
			if inst.length == 0 {
				inst.firstAt = tok.Time
			}
			if fresh {
				startedFresh = true
			}
			inst.lastShiftAt = tok.Time
			inst.length++
			if tag, accepted := inst.m.WouldAccept(); accepted && winner == nil {
				winner = &Prediction{
					Node:       d.node,
					ChainIndex: tag,
					ChainName:  d.chainName(tag),
					FirstAt:    inst.firstAt,
					MatchedAt:  tok.Time,
					Length:     inst.length,
				}
			}
		default:
			d.stats.Skipped++
		}
	}

	// Spawn a fresh instance when the token could begin a rule (a fresh
	// machine shifts it) and no fresh instance consumed it already.
	if !startedFresh && len(d.instances) < d.maxInst && d.rs.Tables.CanStart(sym) {
		inst := &multiInstance{m: lalr.NewMachine(d.rs.Tables), firstAt: tok.Time, lastShiftAt: tok.Time, length: 1}
		inst.m.Feed(sym)
		d.stats.Consumed++
		if tag, accepted := inst.m.WouldAccept(); accepted && winner == nil {
			winner = &Prediction{
				Node: d.node, ChainIndex: tag, ChainName: d.chainName(tag),
				FirstAt: tok.Time, MatchedAt: tok.Time, Length: 1,
			}
		}
		d.instances = append(d.instances, inst)
	}

	if winner != nil {
		d.stats.Matches++
		// A match subsumes the concurrent hypotheses in its time frame.
		d.Reset()
	}
	return winner
}

func (d *MultiDriver) chainName(tag int) string {
	if tag >= 0 && tag < len(d.rs.Chains) {
		return d.rs.Chains[tag].Name
	}
	return "chain#?"
}

// ParseStream runs a whole token stream, returning all predictions.
func (d *MultiDriver) ParseStream(tokens []core.Token) []*Prediction {
	var preds []*Prediction
	for _, tok := range tokens {
		if p := d.Feed(tok); p != nil {
			preds = append(preds, p)
		}
	}
	return preds
}
