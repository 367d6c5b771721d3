// Package parser implements Aarohi's online inference driver (Algorithm 2 of
// the paper): a modified LALR(1) parse loop over the token stream of a single
// node. The driver
//
//   - feeds each relevant token to the generated LALR machine,
//   - skips tokens the current parse does not expect, as long as the time
//     since the last consumed token stays within the ΔT timeout ("skipping
//     tokens is essential for rule checking to discard the non-relevant
//     phrases in between FC-related phrases"),
//   - resets the parse when the timeout is exceeded ("inordinate delays
//     between incoming phrases of known failure chains do not belong to the
//     same failure pattern"), restarting with the current token, and
//   - flags a predicted node failure the moment the consumed tokens form a
//     complete failure chain, then resumes with the next token.
//
// One Driver serves one node; the predictor package instantiates one per
// node (Fig. 2).
package parser

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/lalr"
)

// Prediction is one flagged node failure.
type Prediction struct {
	// Node is the node the failure is predicted for.
	Node string
	// ChainIndex and ChainName identify the matched failure chain.
	ChainIndex int
	ChainName  string
	// FirstAt and MatchedAt are the arrival times of the first and last
	// phrases of the matched chain. Lead time to the actual failure is
	// measured from MatchedAt.
	FirstAt   time.Time
	MatchedAt time.Time
	// Length is the number of phrases consumed for the match.
	Length int
}

func (p Prediction) String() string {
	return fmt.Sprintf("node %s: %s matched at %s (chain of %d, first phrase %s)",
		p.Node, p.ChainName, p.MatchedAt.Format(time.RFC3339), p.Length, p.FirstAt.Format(time.RFC3339))
}

// Stats counts driver activity, including the Table V interleaving evidence.
type Stats struct {
	// Tokens is the number of FC-relevant tokens fed.
	Tokens int
	// Irrelevant counts fed tokens whose phrase appears in no chain (already
	// filtered by the scanner in normal operation).
	Irrelevant int
	// Consumed counts tokens shifted into a parse.
	Consumed int
	// Skipped counts relevant tokens skipped on a parse mismatch.
	Skipped int
	// Interleaved counts skipped tokens that could have *started* another
	// rule while a partial match was in progress — the paper's interleaved
	// rule-match case (Table V).
	Interleaved int
	// TimeoutResets counts parses abandoned on a ΔT violation.
	TimeoutResets int
	// Matches counts completed chains (predictions emitted).
	Matches int
}

// Add folds another driver's counters into s.
func (s *Stats) Add(o Stats) {
	s.Tokens += o.Tokens
	s.Irrelevant += o.Irrelevant
	s.Consumed += o.Consumed
	s.Skipped += o.Skipped
	s.Interleaved += o.Interleaved
	s.TimeoutResets += o.TimeoutResets
	s.Matches += o.Matches
}

// Driver is the per-node online parser.
type Driver struct {
	rs      *core.RuleSet
	machine *lalr.Machine
	node    string
	timeout time.Duration

	active      bool
	firstAt     time.Time
	lastShiftAt time.Time
	length      int

	stats Stats
}

// New returns a driver for one node over the given rule set.
func New(rs *core.RuleSet, node string) *Driver {
	return &Driver{rs: rs, machine: lalr.NewMachine(rs.Tables), node: node, timeout: rs.MaxTimeout()}
}

// Node returns the node this driver serves.
func (d *Driver) Node() string { return d.node }

// Stats returns a copy of the activity counters.
func (d *Driver) Stats() Stats { return d.stats }

// Active reports whether a partial chain match is in progress.
func (d *Driver) Active() bool { return d.active }

// Reset abandons any partial match and returns to the start state.
func (d *Driver) Reset() {
	d.machine.Reset()
	d.active = false
	d.length = 0
}

// Feed advances the driver with one token. It returns a non-nil Prediction
// when the token completes a failure chain.
//
//aarohi:hotpath
func (d *Driver) Feed(tok core.Token) *Prediction {
	sym, ok := d.rs.Term(tok.Phrase)
	if !ok {
		d.stats.Irrelevant++
		return nil
	}
	d.stats.Tokens++

	// ΔT timeout: an active parse whose last consumed phrase is too old is
	// abandoned; the current token may start a fresh parse (Algorithm 2
	// line 13: "Reset after Current Token").
	if d.active && tok.Time.Sub(d.lastShiftAt) > d.timeout {
		d.stats.TimeoutResets++
		d.Reset()
	}

	switch d.machine.Feed(sym) {
	case lalr.Shifted:
		d.stats.Consumed++
		if !d.active {
			d.active = true
			d.firstAt = tok.Time
		}
		d.lastShiftAt = tok.Time
		d.length++
		if tag, accepted := d.machine.WouldAccept(); accepted {
			pred := &Prediction{
				Node:       d.node,
				ChainIndex: tag,
				ChainName:  d.chainName(tag),
				FirstAt:    d.firstAt,
				MatchedAt:  tok.Time,
				Length:     d.length,
			}
			d.stats.Matches++
			d.Reset()
			return pred
		}
		return nil
	default: // Rejected
		d.stats.Skipped++
		if d.active && d.rs.Tables.CanStart(sym) {
			// The paper's interleaved case: while rule R is partially
			// matched, a token arrives that could begin another rule. Aarohi
			// keeps checking R (skipping the token); this counter provides
			// the Table V evidence that the policy is safe.
			d.stats.Interleaved++
		}
		return nil
	}
}

func (d *Driver) chainName(tag int) string {
	if tag >= 0 && tag < len(d.rs.Chains) {
		return d.rs.Chains[tag].Name
	}
	return fmt.Sprintf("chain#%d", tag)
}

// ParseStream runs a whole token stream through a fresh parse, returning all
// predictions. The driver's cumulative stats keep counting across calls.
func (d *Driver) ParseStream(tokens []core.Token) []*Prediction {
	var preds []*Prediction
	for _, tok := range tokens {
		if p := d.Feed(tok); p != nil {
			preds = append(preds, p)
		}
	}
	return preds
}
