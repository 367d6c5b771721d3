// Package predictor assembles the complete Aarohi online predictor: the
// generated scanner (internal/lexgen), the translated LALR rule set
// (internal/core) and one parse driver per node (internal/parser), matching
// the deployment model of the paper's Fig. 2 — "for each node in the
// cluster, we dedicate a predictor instance that processes messages of that
// node only".
//
// Failure chains learned in Phase 1 end with the terminal failed message
// (e.g. cb_node_unavailable). The predictor derives its parse rules from the
// *precursor* prefix of each chain — everything before the terminal phrase —
// so a prediction fires at the last precursor, minutes before the node
// actually stops responding; the terminal phrase itself is still recognized
// and surfaced as an ObservedFailure for lead-time accounting, exactly how
// the paper computes lead times ("from the timestamped node failed message
// in the test data to the event phrase at which the predictor flags match").
package predictor

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lexgen"
	"repro/internal/parser"
)

// Options configure predictor construction.
type Options struct {
	// Timeout overrides the default ΔT threshold (4 minutes).
	Timeout time.Duration
	// DisableFactoring keeps one production per chain (no subchain
	// non-terminals) — the Table IV P_FC form, for ablation.
	DisableFactoring bool
	// KeepTerminal includes the terminal failed message in the parse rules
	// (prediction then fires only when the node is already dead) — for
	// ablation of the lead-time design.
	KeepTerminal bool
}

// ObservedFailure reports the arrival of a terminal failed message — the
// ground-truth node failure.
type ObservedFailure struct {
	Node   string
	Time   time.Time
	Phrase core.PhraseID
}

// Output is the result of processing one event.
type Output struct {
	// Prediction is non-nil when a failure chain completed.
	Prediction *parser.Prediction
	// Failure is non-nil when a terminal failed message was observed.
	Failure *ObservedFailure
	// Model is the hex fingerprint of the model that produced this output,
	// stamped by Manager so consumers can attribute predictions across
	// hot-swaps. Empty for outputs from a bare Predictor.
	Model string `json:"model,omitempty"`

	// flush is non-nil on barrier markers injected by Manager.Flush; such
	// outputs carry no prediction or failure and must be acked by the
	// Results consumer.
	flush chan<- struct{}
}

// IsFlush reports whether this output is a Manager.Flush barrier marker
// rather than a prediction or failure. The Results consumer must call Ack on
// every marker it receives.
func (o Output) IsFlush() bool { return o.flush != nil }

// Ack acknowledges a flush barrier marker, unblocking the Flush caller once
// every worker's marker is acked. No-op on ordinary outputs.
func (o Output) Ack() {
	if o.flush != nil {
		o.flush <- struct{}{}
	}
}

// Model is one compiled model: the translated rule set with its LALR tables,
// the generated scanner, the terminal set and the model's identity. It is
// immutable once Compile returns — drivers and scanners only read it — so
// every Predictor and Manager worker built over one model version shares a
// single Model instead of compiling its own (the paper's Fig. 2: one
// generated scanner and parser, a cheap per-node instance of them).
type Model struct {
	rules    *core.RuleSet
	scanner  *lexgen.Scanner
	chains   []core.FailureChain // original chains, including terminals
	terminal map[core.PhraseID]bool

	// fingerprint identifies the model (chains + inventory + options) so a
	// snapshot taken under one model is never restored under another.
	fingerprint uint64
	fpHex       string
	// rulesFingerprint identifies only the compiled parse automaton (the
	// rule-chain phrase sequences and factoring mode). Two models with equal
	// rulesFingerprint produce identical LALR tables, so parse stacks can
	// migrate between them even when templates or timeouts differ.
	rulesFingerprint uint64

	// compileTime is how long Compile took, for boot-time attribution.
	compileTime time.Duration

	// inventory and opts are, with chains, what Compile was given, so a
	// model is its own source (Source).
	inventory []core.Template
	opts      Options
}

// Predictor is the cluster-wide online predictor: one compiled Model plus
// the per-node parse drivers and counters of one stream.
type Predictor struct {
	model   *Model
	drivers map[string]*parser.Driver

	linesScanned int
	tokens       int
	discarded    int
}

// New builds a predictor from Phase-1 chains and the system's template
// inventory (Compile, then NewPredictor).
func New(chains []core.FailureChain, inventory []core.Template, opts Options) (*Predictor, error) {
	m, err := Compile(chains, inventory, opts)
	if err != nil {
		return nil, err
	}
	return m.NewPredictor(), nil
}

// NewPredictor returns a predictor with no per-node state over this model.
func (m *Model) NewPredictor() *Predictor {
	return &Predictor{model: m, drivers: map[string]*parser.Driver{}}
}

// Compile builds the model from Phase-1 chains and the system's template
// inventory. Chains whose last phrase is a Failed-class template contribute
// their precursor prefix as the parse rule; chains ending in a non-terminal
// phrase are used whole.
func Compile(chains []core.FailureChain, inventory []core.Template, opts Options) (*Model, error) {
	began := time.Now()
	if len(chains) == 0 {
		return nil, fmt.Errorf("predictor: no failure chains")
	}
	classOf := map[core.PhraseID]core.Class{}
	tplOf := map[core.PhraseID]core.Template{}
	for _, t := range inventory {
		classOf[t.ID] = t.Class
		tplOf[t.ID] = t
	}

	terminal := map[core.PhraseID]bool{}
	ruleChains := make([]core.FailureChain, 0, len(chains))
	seen := map[string]bool{}
	for _, fc := range chains {
		if len(fc.Phrases) == 0 {
			return nil, fmt.Errorf("predictor: chain %q is empty", fc.Name)
		}
		rule := fc
		last := fc.Phrases[len(fc.Phrases)-1]
		if classOf[last] == core.Failed {
			terminal[last] = true
			if !opts.KeepTerminal {
				if len(fc.Phrases) < 2 {
					return nil, fmt.Errorf("predictor: chain %q has no precursors before its failed message", fc.Name)
				}
				rule.Phrases = fc.Phrases[:len(fc.Phrases)-1]
				if len(fc.Gaps) == len(fc.Phrases)-1 {
					// Drop the final precursor→failure gap with the
					// terminal phrase so the gap arity stays valid.
					rule.Gaps = fc.Gaps[:len(fc.Gaps)-1]
				}
			}
		}
		key := phraseKey(rule.Phrases)
		if seen[key] {
			// Two chains with identical precursors (differing only in their
			// terminal message) collapse to one rule; the first wins.
			continue
		}
		seen[key] = true
		ruleChains = append(ruleChains, rule)
	}

	// The scanner recognizes every rule phrase plus the terminal failed
	// messages; everything else is discarded without tokenization. The rule
	// phrases are the ones rs.Relevant reports, so the scanner's templates
	// are chosen from the rule chains.
	inRule := map[core.PhraseID]bool{}
	for _, fc := range ruleChains {
		for _, p := range fc.Phrases {
			inRule[p] = true
		}
	}
	var scanTemplates []core.Template
	added := map[core.PhraseID]bool{}
	for _, t := range inventory {
		if (inRule[t.ID] || terminal[t.ID]) && !added[t.ID] {
			added[t.ID] = true
			scanTemplates = append(scanTemplates, t)
		}
	}
	rs, err := core.TranslateFCs(ruleChains, core.Options{
		Timeout:          opts.Timeout,
		DisableFactoring: opts.DisableFactoring,
	})
	if err != nil {
		return nil, fmt.Errorf("predictor: translating chains: %w", err)
	}
	for id := range terminal {
		if !added[id] {
			return nil, fmt.Errorf("predictor: terminal phrase %d missing from inventory", id)
		}
	}
	for _, fc := range ruleChains {
		for _, p := range fc.Phrases {
			if _, ok := tplOf[p]; !ok {
				return nil, fmt.Errorf("predictor: chain %q phrase %d missing from inventory", fc.Name, p)
			}
		}
	}
	scanner, err := lexgen.NewScanner(scanTemplates)
	if err != nil {
		return nil, fmt.Errorf("predictor: building scanner: %w", err)
	}

	fp := modelFingerprint(chains, inventory, opts)
	return &Model{
		rules:            rs,
		scanner:          scanner,
		chains:           append([]core.FailureChain(nil), chains...),
		terminal:         terminal,
		fingerprint:      fp,
		fpHex:            fmt.Sprintf("%016x", fp),
		rulesFingerprint: rulesFingerprint(ruleChains, opts),
		compileTime:      time.Since(began),
		inventory:        append([]core.Template(nil), inventory...),
		opts:             opts,
	}, nil
}

func phraseKey(ps []core.PhraseID) string {
	b := make([]byte, 0, len(ps)*4)
	for _, p := range ps {
		b = append(b, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
	}
	return string(b)
}

// Source returns the chains, inventory and options the model was compiled
// from; they fingerprint to FingerprintHex. The slices are the model's own
// and must not be modified.
func (m *Model) Source() ([]core.FailureChain, []core.Template, Options) {
	return m.chains, m.inventory, m.opts
}

// CompileTime reports how long Compile took to build this model.
func (m *Model) CompileTime() time.Duration { return m.compileTime }

// Scanner returns the model's generated scanner, for callers that scan lines
// before handing the tokens to a Manager (Manager.ProcessScanned).
func (m *Model) Scanner() *lexgen.Scanner { return m.scanner }

// RuleSet exposes the translated rules (for inspection and experiments).
func (p *Predictor) RuleSet() *core.RuleSet { return p.model.rules }

// Scanner exposes the generated scanner.
func (p *Predictor) Scanner() *lexgen.Scanner { return p.model.scanner }

// Chains returns the original Phase-1 chains (including terminal phrases).
func (p *Predictor) Chains() []core.FailureChain {
	return append([]core.FailureChain(nil), p.model.chains...)
}

// driver returns (creating if needed) the per-node parse driver. node is
// usually a substring of an ingest chunk tens of KiB long; the copy stored
// here — map key, Driver.Node, and through it every Prediction.Node — is the
// driver's own, so a 20-byte node ID never keeps a whole chunk alive.
func (p *Predictor) driver(node string) *parser.Driver {
	d, ok := p.drivers[node]
	if !ok {
		node = strings.Clone(node)
		d = parser.New(p.model.rules, node)
		p.drivers[node] = d
	}
	return d
}

// ProcessLine scans one raw log line and advances the owning node's parse.
func (p *Predictor) ProcessLine(line string) (Output, error) {
	p.linesScanned++
	tok, ok, err := p.model.scanner.ScanLine(line)
	if err != nil {
		return Output{}, err
	}
	if !ok {
		p.discarded++
		return Output{}, nil
	}
	p.tokens++
	return p.processToken(tok), nil
}

// ProcessToken advances the owning node's parse with an already-scanned
// token (for callers that tokenize themselves, e.g. the cluster simulator).
// Tokens whose phrase is neither a rule phrase nor a terminal are counted as
// discarded, mirroring the scanner's filter.
func (p *Predictor) ProcessToken(tok core.Token) Output {
	p.linesScanned++
	if !p.model.rules.Relevant(tok.Phrase) && !p.model.terminal[tok.Phrase] {
		p.discarded++
		return Output{}
	}
	p.tokens++
	return p.processToken(tok)
}

func (p *Predictor) processToken(tok core.Token) Output {
	var out Output
	if p.model.terminal[tok.Phrase] {
		// Outputs outlive the batch (hub buffers, the recovered list): the
		// node is copied out of the ingest chunk it may be a substring of.
		out.Failure = &ObservedFailure{Node: strings.Clone(tok.Node), Time: tok.Time, Phrase: tok.Phrase}
		// Terminal phrases may also be rule phrases when KeepTerminal is
		// set; feed them through in that case.
		if !p.model.rules.Relevant(tok.Phrase) {
			return out
		}
	}
	out.Prediction = p.driver(tok.Node).Feed(tok)
	return out
}

// Stats aggregates scanner and driver activity.
type Stats struct {
	// LinesScanned is the number of lines/events processed.
	LinesScanned int
	// Tokens is the number of events that matched an FC-related template.
	Tokens int
	// Discarded is the number of events dropped during lexical scanning.
	Discarded int
	// Nodes is the number of per-node driver instances.
	Nodes int
	// Parser aggregates driver counters across nodes.
	Parser parser.Stats
}

// Add folds another predictor's counters into s: every field is a count, so
// the fold is a sum. Workers, shards and shadows all aggregate through it.
func (s *Stats) Add(o Stats) {
	s.LinesScanned += o.LinesScanned
	s.Tokens += o.Tokens
	s.Discarded += o.Discarded
	s.Nodes += o.Nodes
	s.Parser.Add(o.Parser)
}

// FCRelatedFraction returns the fraction of events that tokenized — the
// Fig. 12 quantity ("fraction of FC-related phrases eventually tokenized").
func (s Stats) FCRelatedFraction() float64 {
	if s.LinesScanned == 0 {
		return 0
	}
	return float64(s.Tokens) / float64(s.LinesScanned)
}

// Stats returns current aggregate counters.
func (p *Predictor) Stats() Stats {
	st := Stats{
		LinesScanned: p.linesScanned,
		Tokens:       p.tokens,
		Discarded:    p.discarded,
		Nodes:        len(p.drivers),
	}
	for _, d := range p.drivers {
		st.Parser.Add(d.Stats())
	}
	return st
}

// NodeStats returns the per-node driver counters.
func (p *Predictor) NodeStats() map[string]parser.Stats {
	out := make(map[string]parser.Stats, len(p.drivers))
	for node, d := range p.drivers {
		out[node] = d.Stats()
	}
	return out
}

// Reset clears every driver and counter (the model stays).
func (p *Predictor) Reset() {
	p.drivers = map[string]*parser.Driver{}
	p.linesScanned, p.tokens, p.discarded = 0, 0, 0
}

// Update re-generates the predictor from a new chain set — the paper's
// dynamic re-training path ("the predictor … may be dynamically updated if
// new training data becomes available"). The scanner and rule tables are
// rebuilt and swapped in atomically from the caller's perspective; in-flight
// partial matches are abandoned (their chains may no longer exist) and all
// counters keep accumulating. Not safe for concurrent use with Process*.
func (p *Predictor) Update(chains []core.FailureChain, inventory []core.Template, opts Options) error {
	fresh, err := Compile(chains, inventory, opts)
	if err != nil {
		return err
	}
	p.model = fresh
	p.drivers = map[string]*parser.Driver{}
	return nil
}
