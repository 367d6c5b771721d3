// Package vet is a static-analysis pass over compiled failure-chain engines:
// the reproduction's analogue of `go vet` for Aarohi models. Given a model —
// the Phase-1 failure chains plus (optionally) the phrase-template inventory —
// it compiles the same artifacts the online predictor would (token list,
// scanner DFA, LALR(1) grammar) and runs a suite of analyzers over them:
//
//   - chains: duplicate chains, and chains whose phrase sequence is a strict
//     prefix of a longer chain (which eager acceptance pre-empts forever).
//   - inventory: dead templates (inventoried phrases in no chain) and orphan
//     phrases (chain phrases missing from the inventory).
//   - overlap: scanner-level template overlap, found in one walk of the
//     combined template DFA with a concrete witness message for every
//     collision.
//   - deltat: ΔT consistency — non-positive gap annotations, gaps the reset
//     timeout makes unsatisfiable, and lead times below a configured floor.
//   - grammar: LALR(1) conflicts mapped back to the implicated chains,
//     unreachable productions, and dead scanner-DFA states.
//
// The suite is exposed three ways: the aarohivet CLI, the opt-in
// core.Options.Vet compile hook (see CompileHook), and a warning pass in
// fctrain after mining.
package vet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/lalr"
	"repro/internal/lexgen"
	"repro/internal/rex"
)

// Severity ranks findings. Errors indicate a model that cannot behave as
// intended (a chain that can never fire, a phrase that can never tokenize);
// warnings indicate likely mistakes; infos are observations.
type Severity int

const (
	// Info findings are observations with no behavioral impact.
	Info Severity = iota
	// Warning findings are likely mistakes that do not break the model.
	Warning
	// Error findings mean part of the model can never work as written.
	Error
)

// String returns the lower-case name used in renderings and JSON.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its string name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a severity from its string name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"info"`:
		*s = Info
	case `"warning"`:
		*s = Warning
	case `"error"`:
		*s = Error
	default:
		return fmt.Errorf("vet: unknown severity %s", b)
	}
	return nil
}

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Check names the analyzer that produced the finding.
	Check string `json:"check"`
	// Severity ranks the finding.
	Severity Severity `json:"severity"`
	// Subject identifies the model element at fault (a chain name, a
	// template "template 134", ...). Never empty.
	Subject string `json:"subject"`
	// Message explains the defect, including any witness.
	Message string `json:"message"`
	// Related names other implicated model elements.
	Related []string `json:"related,omitempty"`
}

// Model is the unit of analysis: the failure chains and, optionally, the
// phrase-template inventory they tokenize against. Inventory-dependent checks
// degrade gracefully when Templates is empty.
type Model struct {
	Chains    []core.FailureChain
	Templates []core.Template
}

// Config tunes the analysis.
type Config struct {
	// Timeout overrides the default per-gap reset timeout
	// (core.DefaultTimeout) when positive, mirroring core.Options.Timeout.
	Timeout time.Duration
	// MinLead, when positive, is the minimum acceptable predicted lead time:
	// chains whose final precursor→failure gap falls below it draw a
	// warning (a prediction that arrives too late to act on).
	MinLead time.Duration
	// DisableFactoring mirrors core.Options.DisableFactoring.
	DisableFactoring bool
	// Checks restricts the run to the named analyzers; empty runs all.
	Checks []string
}

// Pass carries the model and its compiled artifacts to each analyzer.
type Pass struct {
	Model  Model
	Config Config

	// RuleSet is the Algorithm-1 output (token list, rules, grammar; Tables
	// is nil — vet compiles only up to grammar construction). Nil when the
	// chains do not compile; analyzers must tolerate that.
	RuleSet *core.RuleSet
	// Conflicts are the LALR(1) conflicts of the unfactored-fallback-free
	// grammar (what TranslateFCs would silently paper over). Nil when the
	// chains do not compile.
	Conflicts []lalr.Conflict
	// Scanner is the combined template DFA, unminimized so dead states are
	// observable. Nil when the model has no templates or they do not
	// compile.
	Scanner *rex.Set

	classOf  map[core.PhraseID]core.Class
	tmplOf   map[core.PhraseID]core.Template
	findings []Finding
}

// Report records a finding.
func (p *Pass) Report(f Finding) { p.findings = append(p.findings, f) }

// Class returns the inventoried class of a phrase.
func (p *Pass) Class(id core.PhraseID) (core.Class, bool) {
	c, ok := p.classOf[id]
	return c, ok
}

// Template returns the inventoried template of a phrase.
func (p *Pass) Template(id core.PhraseID) (core.Template, bool) {
	t, ok := p.tmplOf[id]
	return t, ok
}

// ResetTimeout returns the per-gap bound the online driver enforces: the
// laxest applicable ΔT threshold across all chains (see
// core.RuleSet.MaxTimeout).
func (p *Pass) ResetTimeout() time.Duration {
	bound := core.DefaultTimeout
	if p.Config.Timeout > 0 {
		bound = p.Config.Timeout
	}
	for _, fc := range p.Model.Chains {
		if fc.Timeout > bound {
			bound = fc.Timeout
		}
	}
	return bound
}

// Analyzer is one vet check.
type Analyzer interface {
	// Name is the check's identifier (used in Finding.Check and -checks).
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Analyze inspects the pass and reports findings.
	Analyze(p *Pass)
}

var registry = map[string]Analyzer{}

// Register adds an analyzer to the default suite. It panics on duplicate
// names; call it from package init functions.
func Register(a Analyzer) {
	if _, dup := registry[a.Name()]; dup {
		panic(fmt.Sprintf("vet: duplicate analyzer %q", a.Name()))
	}
	registry[a.Name()] = a
}

// Analyzers returns the registered suite sorted by name.
func Analyzers() []Analyzer {
	out := make([]Analyzer, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Report is the outcome of a Run: all findings, ordered most severe first.
type Report struct {
	Findings []Finding `json:"findings"`
}

// Count returns the number of findings at exactly severity s.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == s {
			n++
		}
	}
	return n
}

// Max returns the highest severity present, and false when there are no
// findings.
func (r *Report) Max() (Severity, bool) {
	if len(r.Findings) == 0 {
		return Info, false
	}
	m := r.Findings[0].Severity
	for _, f := range r.Findings[1:] {
		if f.Severity > m {
			m = f.Severity
		}
	}
	return m, true
}

// Run executes the suite (or the subset named in cfg.Checks) over the model.
// It returns an error only for unusable input — an empty model or an unknown
// check name; model defects are findings, not errors.
func Run(m Model, cfg Config) (*Report, error) {
	if len(m.Chains) == 0 {
		return nil, fmt.Errorf("vet: model has no failure chains")
	}
	suite := Analyzers()
	if len(cfg.Checks) > 0 {
		var sel []Analyzer
		for _, name := range cfg.Checks {
			a, ok := registry[name]
			if !ok {
				return nil, fmt.Errorf("vet: unknown check %q (have %s)", name, strings.Join(checkNames(), ", "))
			}
			sel = append(sel, a)
		}
		suite = sel
	}

	// The grammar and the scanner compile side by side. The scanner's half
	// reports its failure once both are done, after the grammar's, as a
	// sequential run would.
	p := newPass(m, cfg)
	var scanFailed []Finding
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		scanFailed = p.compileScanner()
	}()
	p.compileGrammar()
	<-scanned
	p.findings = append(p.findings, scanFailed...)
	return p.analyze(suite), nil
}

func newPass(m Model, cfg Config) *Pass {
	p := &Pass{
		Model:   m,
		Config:  cfg,
		classOf: map[core.PhraseID]core.Class{},
		tmplOf:  map[core.PhraseID]core.Template{},
	}
	for _, t := range m.Templates {
		p.classOf[t.ID] = t.Class
		p.tmplOf[t.ID] = t
	}
	return p
}

// compileGrammar compiles the grammar-side artifacts. A compile failure is
// itself an error finding; chain-level analyzers still run and pinpoint the
// cause.
func (p *Pass) compileGrammar() {
	rs, conflicts, err := core.GrammarConflicts(p.Model.Chains, core.Options{
		Timeout:          p.Config.Timeout,
		DisableFactoring: p.Config.DisableFactoring,
	})
	if err != nil {
		p.Report(Finding{
			Check: "compile", Severity: Error, Subject: "rule set",
			Message: err.Error(),
		})
	} else {
		p.RuleSet = rs
		p.Conflicts = conflicts
	}
}

// compileScanner compiles the scanner-side artifact, the combined template
// DFA, without minimization so dead states remain observable. It sets only
// p.Scanner and returns its compile failure instead of reporting it.
func (p *Pass) compileScanner() []Finding {
	if len(p.Model.Templates) == 0 {
		return nil
	}
	patterns := make([]string, len(p.Model.Templates))
	for i, t := range p.Model.Templates {
		patterns[i] = lexgen.TemplatePattern(t.Pattern)
	}
	set, err := rex.CompileSet(patterns)
	if err != nil {
		return []Finding{{
			Check: "compile", Severity: Error, Subject: "scanner",
			Message: fmt.Sprintf("compiling template patterns: %v", err),
		}}
	}
	p.Scanner = set
	return nil
}

// analyze runs the suite over the compiled pass and orders the findings,
// most severe first.
func (p *Pass) analyze(suite []Analyzer) *Report {
	for _, a := range suite {
		a.Analyze(p)
	}
	sort.SliceStable(p.findings, func(i, j int) bool {
		a, b := p.findings[i], p.findings[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		return a.Message < b.Message
	})
	return &Report{Findings: p.findings}
}

func checkNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CompileHook adapts the vet suite to core.Options.Vet: the returned hook
// runs the full analysis against the rule set's chains plus the given
// inventory and rejects the compile when any error-severity finding is
// present.
func CompileHook(templates []core.Template, cfg Config) func(*core.RuleSet) error {
	return func(rs *core.RuleSet) error {
		rep, err := Run(Model{Chains: rs.Chains, Templates: templates}, cfg)
		if err != nil {
			return err
		}
		if n := rep.Count(Error); n > 0 {
			first := ""
			for _, f := range rep.Findings {
				if f.Severity == Error {
					first = fmt.Sprintf("[%s] %s: %s", f.Check, f.Subject, f.Message)
					break
				}
			}
			return fmt.Errorf("vet: %d error finding(s); first: %s", n, first)
		}
		return nil
	}
}
