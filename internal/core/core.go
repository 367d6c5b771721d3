// Package core defines the data model of the Aarohi reproduction — phrase
// templates, tokens, failure chains — and implements Algorithm 1 of the
// paper: the automatic, offline translation of a set of learned failure
// chains (FCs) into a token list and an LALR(1) rule set that the online
// predictor executes.
//
// In the paper's terms (§III): Phase 1 produces FCs; this package turns them
// into the grammar G = (N, T, P, S) of Table IV, factoring common subchains
// into non-terminal symbols, and compiles the grammar into parse tables via
// the internal/lalr generator.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/lalr"
)

// PhraseID identifies a distinct phrase template. IDs are assigned by the
// template inventory of a system (Phase 1) and are stable across training and
// prediction.
type PhraseID int

// Class labels a phrase the way Phase 1 labeling does (§III): benign phrases
// never participate in failure chains; unknown and erroneous phrases may;
// failed phrases are the terminal node-shutdown messages.
type Class uint8

const (
	// Benign phrases are normal operation messages, discarded by the scanner.
	Benign Class = iota
	// Unknown phrases are not known to be harmless (e.g. "DVS: verify
	// filesystem: *").
	Unknown
	// Erroneous phrases indicate faults (e.g. "Lnet: critical hardware
	// error: *").
	Erroneous
	// Failed phrases mark anomalous node shutdowns (e.g.
	// "cb_node_unavailable").
	Failed
)

// String returns the single-letter label the paper uses (Table III).
func (c Class) String() string {
	switch c {
	case Benign:
		return "B"
	case Unknown:
		return "U"
	case Erroneous:
		return "E"
	case Failed:
		return "F"
	}
	return "?"
}

// Template is one phrase template: a literal message skeleton in which '*'
// matches any run of characters (Table III's Phrase column).
type Template struct {
	ID      PhraseID `json:"id"`
	Pattern string   `json:"pattern"`
	Class   Class    `json:"class"`
}

// Token is the unit the scanner emits to the parser: a matched phrase with
// its arrival time and originating node (Table III's Token column).
type Token struct {
	Phrase PhraseID
	Time   time.Time
	Node   string
}

// NoPhrase marks a token for a parseable line that matched no template: it
// carries the line's node and time (a heartbeat) but nothing to parse.
const NoPhrase PhraseID = -1

// EventKind says what an Event reports about its node: a parseable log line
// (a liveness sample), a failure chain accepted, or an observed failure.
type EventKind uint8

const (
	EventBeat EventKind = iota
	EventPrediction
	EventFailure
)

// Event is one per-node occurrence of the stream as the predictor worker that
// owns the node reports it: a line's beat, then what the line produced. Time
// is the line's; Chain names the accepted chain of an EventPrediction.
type Event struct {
	Kind  EventKind
	Node  string
	Time  time.Time
	Chain string
}

// FailureChain is a learned sequence of phrases leading to a node failure.
type FailureChain struct {
	// Name identifies the chain, e.g. "FC3".
	Name string `json:"name"`
	// Phrases is the ordered phrase sequence; the last phrase is typically a
	// Failed message.
	Phrases []PhraseID `json:"phrases"`
	// Timeout is the chain-specific ΔT threshold; 0 means the rule set
	// default applies.
	Timeout time.Duration `json:"timeout,omitempty"`
	// Gaps optionally annotates the expected ΔT between adjacent phrases
	// (the paper's Table III ΔT column): Gaps[i] is the typical delay
	// between Phrases[i] and Phrases[i+1], so len(Gaps) == len(Phrases)-1
	// when present. The online driver ignores them; the trainer records the
	// mean observed gaps and aarohivet checks them for consistency against
	// the reset timeout.
	Gaps []time.Duration `json:"gaps,omitempty"`
}

// DefaultTimeout is the ΔT threshold used when a chain does not carry its
// own: the paper suggests ~4 minutes, when ~93% of phrase inter-arrival
// times fall below that bound (§III, Fig. 5 discussion).
const DefaultTimeout = 4 * time.Minute

// Rule is one translated rule: the chain it came from plus its (possibly
// factored) right-hand side over grammar symbols.
type Rule struct {
	Chain string
	Rhs   []lalr.Symbol
}

// Subchain is a factored common subsequence promoted to a non-terminal.
type Subchain struct {
	Sym lalr.Symbol
	Rhs []lalr.Symbol
}

// RuleSet is the output of Algorithm 1: the token list, the rule list, the
// derived grammar, and its LALR(1) tables.
type RuleSet struct {
	Chains []FailureChain

	// TokenList enumerates the distinct phrases across all FCs in order of
	// first appearance (Algorithm 1 line 5); only these are tokenized online.
	TokenList []PhraseID

	// Rules holds the factored top-level rules, one per chain, in chain
	// order (tags in the grammar index into Chains).
	Rules []Rule

	// Subchains holds the factored non-terminals (empty when no common
	// subchains exist or factoring is disabled).
	Subchains []Subchain

	// Grammar and Tables are the compiled LALR(1) artifacts.
	Grammar *lalr.Grammar
	Tables  *lalr.Tables

	// FactoringFellBack reports that subchain factoring produced an LALR
	// conflict (possible for adversarial chain shapes, e.g. long cyclic
	// chains) and the plain one-production-per-chain grammar was used
	// instead. The recognized language is identical either way.
	FactoringFellBack bool

	// Timeout is the default ΔT threshold for chains without their own.
	Timeout time.Duration

	termOf   map[PhraseID]lalr.Symbol
	phraseOf []PhraseID // indexed by terminal symbol
}

// Options configure TranslateFCs.
type Options struct {
	// Timeout overrides DefaultTimeout when positive.
	Timeout time.Duration
	// DisableFactoring keeps the one-production-per-chain rule form (the
	// paper's P_FC of Table IV) instead of factoring common subchains into
	// non-terminals (P_LALR). Useful for ablation.
	DisableFactoring bool
	// MinSubchain is the minimum length of a common subchain worth factoring
	// (default 2).
	MinSubchain int
	// Vet, when non-nil, is invoked with the fully compiled rule set before
	// TranslateFCs returns; a non-nil error rejects the rule set and fails
	// the compile. internal/vet's CompileHook wires the static-analysis
	// suite here so fatally flawed chain sets never reach deployment.
	Vet func(*RuleSet) error
}

// TranslateFCs implements Algorithm 1: it validates the chains, forms the
// token and rule lists, factors common subchains into non-terminals, and
// compiles the LALR(1) tables.
func TranslateFCs(chains []FailureChain, opts Options) (*RuleSet, error) {
	rs, err := buildRuleSet(chains, opts)
	if err != nil {
		return nil, err
	}
	tables, err := lalr.BuildTables(rs.Grammar)
	if err != nil {
		if !opts.DisableFactoring {
			// Factoring introduced a conflict (possible with adversarial
			// chain shapes); the plain one-production-per-chain grammar is
			// always conflict-free for distinct chains, so fall back.
			fallback := opts
			fallback.DisableFactoring = true
			fallback.Vet = nil // vet once, on the final rule set
			rs, ferr := TranslateFCs(chains, fallback)
			if ferr != nil {
				return rs, ferr
			}
			rs.FactoringFellBack = true
			if opts.Vet != nil {
				if verr := opts.Vet(rs); verr != nil {
					return nil, fmt.Errorf("core: vet rejected rule set: %w", verr)
				}
			}
			return rs, nil
		}
		return nil, fmt.Errorf("core: building LALR tables: %w", err)
	}
	rs.Tables = tables
	if opts.Vet != nil {
		if verr := opts.Vet(rs); verr != nil {
			return nil, fmt.Errorf("core: vet rejected rule set: %w", verr)
		}
	}
	return rs, nil
}

// GrammarConflicts runs Algorithm 1 up to grammar construction and returns
// the LALR(1) conflicts of the *uncompiled* grammar, without the automatic
// factoring fallback TranslateFCs applies. The returned rule set carries the
// token list, rules, subchains and Grammar, but no Tables. This is the
// diagnostic entry point aarohivet's grammar-health check uses to surface
// conflicts that TranslateFCs would silently paper over by falling back.
func GrammarConflicts(chains []FailureChain, opts Options) (*RuleSet, []lalr.Conflict, error) {
	rs, err := buildRuleSet(chains, opts)
	if err != nil {
		return nil, nil, err
	}
	return rs, lalr.Conflicts(rs.Grammar), nil
}

// buildRuleSet validates the chains and performs Algorithm 1 through grammar
// construction, leaving table generation to the caller.
func buildRuleSet(chains []FailureChain, opts Options) (*RuleSet, error) {
	if len(chains) == 0 {
		return nil, fmt.Errorf("core: no failure chains")
	}
	seenName := map[string]bool{}
	seenSeq := map[string]string{}
	for i, fc := range chains {
		if fc.Name == "" {
			return nil, fmt.Errorf("core: chain %d has no name", i)
		}
		if seenName[fc.Name] {
			return nil, fmt.Errorf("core: duplicate chain name %q", fc.Name)
		}
		seenName[fc.Name] = true
		if len(fc.Phrases) == 0 {
			return nil, fmt.Errorf("core: chain %q is empty", fc.Name)
		}
		if len(fc.Gaps) != 0 && len(fc.Gaps) != len(fc.Phrases)-1 {
			return nil, fmt.Errorf("core: chain %q has %d gap annotations for %d phrases (want %d)",
				fc.Name, len(fc.Gaps), len(fc.Phrases), len(fc.Phrases)-1)
		}
		key := seqKey(fc.Phrases)
		if prev, dup := seenSeq[key]; dup {
			return nil, fmt.Errorf("core: chains %q and %q have identical phrase sequences", prev, fc.Name)
		}
		seenSeq[key] = fc.Name
	}

	rs := &RuleSet{
		Chains:  append([]FailureChain(nil), chains...),
		Timeout: DefaultTimeout,
		termOf:  map[PhraseID]lalr.Symbol{},
	}
	if opts.Timeout > 0 {
		rs.Timeout = opts.Timeout
	}
	minSub := opts.MinSubchain
	if minSub < 2 {
		minSub = 2
	}

	// Algorithm 1 lines 2–9: token list and unique chain rules.
	rs.phraseOf = []PhraseID{-1} // terminal 0 is EOF
	for _, fc := range chains {
		for _, p := range fc.Phrases {
			if _, ok := rs.termOf[p]; !ok {
				sym := lalr.Symbol(len(rs.phraseOf))
				rs.termOf[p] = sym
				rs.phraseOf = append(rs.phraseOf, p)
				rs.TokenList = append(rs.TokenList, p)
			}
		}
	}
	numTerminals := len(rs.phraseOf)

	rules := make([][]lalr.Symbol, len(chains))
	for i, fc := range chains {
		rhs := make([]lalr.Symbol, len(fc.Phrases))
		for j, p := range fc.Phrases {
			rhs[j] = rs.termOf[p]
		}
		rules[i] = rhs
	}

	// Algorithm 1 lines 11–21: derive LALR(1) rules by substituting common
	// subchains with non-terminals. Non-terminals carry exactly one
	// production each, so the language of every rule is preserved verbatim.
	nextSym := lalr.Symbol(numTerminals) // start symbol placed first
	startSym := nextSym
	nextSym++
	var subchains []Subchain
	if !opts.DisableFactoring {
		for {
			sub := longestCommonSubchain(rules, minSub)
			if sub == nil {
				break
			}
			b := Subchain{Sym: nextSym, Rhs: sub}
			nextSym++
			subchains = append(subchains, b)
			for i := range rules {
				rules[i] = replaceAll(rules[i], sub, b.Sym)
			}
		}
	}

	// Assemble the grammar: Start → rule_i (Tag=i), plus subchain defs.
	names := make([]string, int(nextSym))
	names[0] = "$eof"
	for sym := 1; sym < numTerminals; sym++ {
		names[sym] = fmt.Sprintf("p%d", rs.phraseOf[sym])
	}
	names[startSym] = "FCs"
	for i, b := range subchains {
		names[b.Sym] = fmt.Sprintf("B%d", i+1)
	}

	var prods []lalr.Production
	for i, rhs := range rules {
		prods = append(prods, lalr.Production{Lhs: startSym, Rhs: rhs, Tag: i})
		rs.Rules = append(rs.Rules, Rule{Chain: chains[i].Name, Rhs: rhs})
	}
	for _, b := range subchains {
		prods = append(prods, lalr.Production{Lhs: b.Sym, Rhs: b.Rhs, Tag: -1})
	}
	rs.Subchains = subchains

	g, err := lalr.New(numTerminals, startSym, prods, names)
	if err != nil {
		return nil, fmt.Errorf("core: building grammar: %w", err)
	}
	rs.Grammar = g
	return rs, nil
}

// Term returns the grammar terminal for a phrase, or (0, false) when the
// phrase appears in no chain (and is thus discarded online).
func (rs *RuleSet) Term(p PhraseID) (lalr.Symbol, bool) {
	s, ok := rs.termOf[p]
	return s, ok
}

// Phrase returns the phrase for a grammar terminal.
func (rs *RuleSet) Phrase(s lalr.Symbol) PhraseID {
	if s <= 0 || int(s) >= len(rs.phraseOf) {
		return -1
	}
	return rs.phraseOf[s]
}

// ChainTimeout returns the ΔT threshold in effect for chain i.
func (rs *RuleSet) ChainTimeout(i int) time.Duration {
	if i >= 0 && i < len(rs.Chains) && rs.Chains[i].Timeout > 0 {
		return rs.Chains[i].Timeout
	}
	return rs.Timeout
}

// MaxTimeout returns the largest ΔT threshold across all chains (at least
// the rule-set default). The online driver abandons a partial parse only
// past this bound: mid-parse the chain identity can be ambiguous (shared
// prefixes), so the laxest applicable threshold is the safe one — a
// too-eager reset would cut a slower chain that is still valid.
func (rs *RuleSet) MaxTimeout() time.Duration {
	m := rs.Timeout
	for i := range rs.Chains {
		if t := rs.ChainTimeout(i); t > m {
			m = t
		}
	}
	return m
}

// Relevant reports whether a phrase participates in any chain.
func (rs *RuleSet) Relevant(p PhraseID) bool {
	_, ok := rs.termOf[p]
	return ok
}

// DumpRules renders the derived productions in the style of Table IV.
func (rs *RuleSet) DumpRules() string {
	var sb strings.Builder
	for i, r := range rs.Rules {
		fmt.Fprintf(&sb, "S → ")
		writeSyms(&sb, rs.Grammar, r.Rhs)
		fmt.Fprintf(&sb, "   ; %s (FC rule %d)\n", r.Chain, i)
	}
	for _, b := range rs.Subchains {
		fmt.Fprintf(&sb, "%s → ", rs.Grammar.Name(b.Sym))
		writeSyms(&sb, rs.Grammar, b.Rhs)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func writeSyms(sb *strings.Builder, g *lalr.Grammar, syms []lalr.Symbol) {
	sb.WriteByte('(')
	for i, s := range syms {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(g.Name(s))
	}
	sb.WriteByte(')')
}

func seqKey(ps []PhraseID) string {
	var sb strings.Builder
	for _, p := range ps {
		fmt.Fprintf(&sb, "%d,", p)
	}
	return sb.String()
}

// longestCommonSubchain finds the longest contiguous symbol sequence of
// length ≥ minLen occurring in at least two distinct positions across the
// rules (in two rules, or twice in one). Ties break toward the sequence with
// the most occurrences, then lexicographically for determinism. Returns nil
// when none exists.
func longestCommonSubchain(rules [][]lalr.Symbol, minLen int) []lalr.Symbol {
	// Collect counts of all subchains up to the max rule length. Rule sets
	// are small (tens of chains × tens of phrases), so the quadratic
	// enumeration is fine and keeps the code obvious.
	maxLen := 0
	for _, r := range rules {
		if len(r) > maxLen {
			maxLen = len(r)
		}
	}
	type subchain struct {
		key   string
		count int
		syms  []lalr.Symbol
	}
	var buf []byte
	for length := maxLen; length >= minLen; length-- {
		index := map[string]int{} // key -> position in subs
		var subs []subchain
		for _, r := range rules {
			// Count non-overlapping occurrences per rule position set; a
			// subchain must appear at ≥ 2 positions overall to be worth a
			// non-terminal.
			for i := 0; i+length <= len(r); i++ {
				sub := r[i : i+length]
				buf = appendSymKey(buf[:0], sub)
				if j, ok := index[string(buf)]; ok {
					subs[j].count++
					continue
				}
				key := string(buf)
				index[key] = len(subs)
				subs = append(subs, subchain{key: key, count: 1, syms: append([]lalr.Symbol(nil), sub...)})
			}
		}
		best := -1
		for j, sc := range subs {
			if sc.count < 2 {
				continue
			}
			if best < 0 || sc.count > subs[best].count || (sc.count == subs[best].count && sc.key < subs[best].key) {
				best = j
			}
		}
		if best >= 0 {
			return subs[best].syms
		}
	}
	return nil
}

// appendSymKey appends the key of a symbol sequence: each symbol in decimal,
// followed by a comma. Ties between subchains break on these strings.
func appendSymKey(dst []byte, syms []lalr.Symbol) []byte {
	for _, s := range syms {
		dst = strconv.AppendInt(dst, int64(s), 10)
		dst = append(dst, ',')
	}
	return dst
}

// replaceAll substitutes every non-overlapping occurrence of sub in rhs with
// sym, scanning left to right.
func replaceAll(rhs, sub []lalr.Symbol, sym lalr.Symbol) []lalr.Symbol {
	var out []lalr.Symbol
	for i := 0; i < len(rhs); {
		if i+len(sub) <= len(rhs) && symsEqual(rhs[i:i+len(sub)], sub) {
			out = append(out, sym)
			i += len(sub)
		} else {
			out = append(out, rhs[i])
			i++
		}
	}
	return out
}

func symsEqual(a, b []lalr.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrefixChains reports pairs (i, j) where chain i's phrase sequence is a
// proper prefix of chain j's. Under eager acceptance the shorter chain is
// reported first; callers may want to merge or reorder such chains.
func PrefixChains(chains []FailureChain) [][2]int {
	var out [][2]int
	for i, a := range chains {
		for j, b := range chains {
			if i == j || len(a.Phrases) >= len(b.Phrases) {
				continue
			}
			prefix := true
			for k, p := range a.Phrases {
				if b.Phrases[k] != p {
					prefix = false
					break
				}
			}
			if prefix {
				out = append(out, [2]int{i, j})
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x][0] != out[y][0] {
			return out[x][0] < out[y][0]
		}
		return out[x][1] < out[y][1]
	})
	return out
}

// WriteChains serializes chains as JSON (the on-disk format produced by
// Phase 1 and consumed by the rule translator).
func WriteChains(w io.Writer, chains []FailureChain) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(chains)
}

// ReadChains deserializes chains from JSON.
func ReadChains(r io.Reader) ([]FailureChain, error) {
	var chains []FailureChain
	if err := json.NewDecoder(r).Decode(&chains); err != nil {
		return nil, fmt.Errorf("core: decoding chains: %w", err)
	}
	return chains, nil
}

// WriteTemplates serializes a template inventory as JSON.
func WriteTemplates(w io.Writer, ts []Template) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// ReadTemplates deserializes a template inventory from JSON.
func ReadTemplates(r io.Reader) ([]Template, error) {
	var ts []Template
	if err := json.NewDecoder(r).Decode(&ts); err != nil {
		return nil, fmt.Errorf("core: decoding templates: %w", err)
	}
	return ts, nil
}
