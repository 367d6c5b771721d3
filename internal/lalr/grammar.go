// Package lalr implements an LALR(1) parser generator: the reproduction's
// substitute for bison/goyacc. The Aarohi paper (§III, Table IV) formalizes
// failure chains as an LALR(1) grammar G = (N, T, P, S) with one lookahead;
// this package turns such a grammar into action/goto tables and provides a
// stepping machine that the online prediction driver feeds one token at a
// time.
//
// The construction is the classic one from Aho/Sethi/Ullman (the paper's
// reference [26]): compute nullable/FIRST, build the LR(0) canonical
// collection, then attach LALR(1) lookaheads by discovering spontaneous
// generation and propagation links via LR(1) closures seeded with a probe
// symbol, iterating to a fixpoint.
package lalr

import (
	"fmt"
	"math/bits"
	"strings"
)

// Symbol identifies a grammar symbol. Terminals occupy 0..numTerminals-1,
// with EOF reserved as symbol 0; nonterminals follow from numTerminals
// upward.
type Symbol int

// EOF is the end-of-input terminal, always symbol 0.
const EOF Symbol = 0

// Production is one context-free production Lhs → Rhs. Tag is an opaque
// caller-provided label reported when the production is reduced; Aarohi tags
// each top-level production with its failure-chain index.
type Production struct {
	Lhs Symbol
	Rhs []Symbol
	Tag int
}

// Grammar is a context-free grammar prepared for table construction.
type Grammar struct {
	numTerminals int
	numSymbols   int
	start        Symbol
	prods        []Production // prods[0] is the internal augmented start production
	names        []string

	prodsByLhs [][]int   // production indices grouped by LHS
	nullable   []bool    // per symbol
	first      []termSet // per symbol
}

// New validates and prepares a grammar. numTerminals is the count of terminal
// symbols including EOF (so real tokens are 1..numTerminals-1); start must be
// a nonterminal; names optionally gives diagnostic names indexed by symbol
// (it may be nil or short, missing names are synthesized).
func New(numTerminals int, start Symbol, prods []Production, names []string) (*Grammar, error) {
	if numTerminals < 1 {
		return nil, fmt.Errorf("lalr: numTerminals must be ≥ 1 (EOF), got %d", numTerminals)
	}
	numSymbols := numTerminals
	check := func(s Symbol) error {
		if s < 0 {
			return fmt.Errorf("lalr: negative symbol %d", s)
		}
		if int(s)+1 > numSymbols {
			numSymbols = int(s) + 1
		}
		return nil
	}
	if err := check(start); err != nil {
		return nil, err
	}
	if int(start) < numTerminals {
		return nil, fmt.Errorf("lalr: start symbol %d is a terminal", start)
	}
	for i, p := range prods {
		if err := check(p.Lhs); err != nil {
			return nil, err
		}
		if int(p.Lhs) < numTerminals {
			return nil, fmt.Errorf("lalr: production %d has terminal LHS %d", i, p.Lhs)
		}
		for _, s := range p.Rhs {
			if err := check(s); err != nil {
				return nil, err
			}
			if s == EOF {
				return nil, fmt.Errorf("lalr: production %d uses EOF in RHS", i)
			}
		}
	}

	// Augment: symbol numSymbols is S'; production 0 is S' → start.
	augStart := Symbol(numSymbols)
	numSymbols++
	all := make([]Production, 0, len(prods)+1)
	all = append(all, Production{Lhs: augStart, Rhs: []Symbol{start}, Tag: -1})
	all = append(all, prods...)

	g := &Grammar{
		numTerminals: numTerminals,
		numSymbols:   numSymbols,
		start:        augStart,
		prods:        all,
	}
	g.names = make([]string, numSymbols)
	for s := range g.names {
		switch {
		case s < len(names) && names[s] != "":
			g.names[s] = names[s]
		case s == 0:
			g.names[s] = "$eof"
		case s < numTerminals:
			g.names[s] = fmt.Sprintf("t%d", s)
		case Symbol(s) == augStart:
			g.names[s] = "$accept"
		default:
			g.names[s] = fmt.Sprintf("N%d", s)
		}
	}

	g.prodsByLhs = make([][]int, numSymbols)
	for i, p := range all {
		g.prodsByLhs[p.Lhs] = append(g.prodsByLhs[p.Lhs], i)
	}
	// Every *referenced* nonterminal must be defined; unreferenced symbol
	// numbers may stay unused (callers often number symbols sparsely).
	used := make([]bool, numSymbols)
	used[start] = true
	for _, p := range all {
		for _, s := range p.Rhs {
			used[s] = true
		}
	}
	for s := numTerminals; s < numSymbols; s++ {
		if used[s] && len(g.prodsByLhs[s]) == 0 {
			return nil, fmt.Errorf("lalr: nonterminal %s has no productions", g.names[s])
		}
	}

	g.computeNullable()
	g.computeFirst()
	return g, nil
}

// NumProductions returns the user production count (excluding augmentation).
func (g *Grammar) NumProductions() int { return len(g.prods) - 1 }

// Start returns the user start symbol (the one passed to New, not the
// internal augmented start).
func (g *Grammar) Start() Symbol { return g.prods[0].Rhs[0] }

// Name returns the diagnostic name of s.
func (g *Grammar) Name(s Symbol) string {
	if int(s) < len(g.names) {
		return g.names[s]
	}
	return fmt.Sprintf("sym%d", s)
}

// Production returns user production i (0-based, excluding augmentation).
func (g *Grammar) Production(i int) Production { return g.prods[i+1] }

func (g *Grammar) isTerminal(s Symbol) bool { return int(s) < g.numTerminals }

func (g *Grammar) computeNullable() {
	g.nullable = make([]bool, g.numSymbols)
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			if g.nullable[p.Lhs] {
				continue
			}
			allNullable := true
			for _, s := range p.Rhs {
				if g.isTerminal(s) || !g.nullable[s] {
					allNullable = false
					break
				}
			}
			if allNullable {
				g.nullable[p.Lhs] = true
				changed = true
			}
		}
	}
}

func (g *Grammar) computeFirst() {
	g.first = make([]termSet, g.numSymbols)
	for s := 0; s < g.numSymbols; s++ {
		g.first[s] = newTermSet(g.numTerminals)
		if g.isTerminal(Symbol(s)) {
			g.first[s].add(Symbol(s))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			for _, s := range p.Rhs {
				if g.first[p.Lhs].unionWith(g.first[s]) {
					changed = true
				}
				if g.isTerminal(s) || !g.nullable[s] {
					break
				}
			}
		}
	}
}

// firstOfSeq accumulates FIRST(seq · ext) into dst, where ext stands for an
// extra lookahead set appended after seq. It reports whether the entire seq
// is nullable (in which case ext was merged into dst).
func (g *Grammar) firstOfSeq(dst termSet, seq []Symbol, ext termSet) bool {
	for _, s := range seq {
		dst.unionWith(g.first[s])
		if g.isTerminal(s) || !g.nullable[s] {
			return false
		}
	}
	dst.unionWith(ext)
	return true
}

// String renders the grammar in a bison-like listing for debugging.
func (g *Grammar) String() string {
	var sb strings.Builder
	for i, p := range g.prods {
		fmt.Fprintf(&sb, "%3d: %s →", i, g.Name(p.Lhs))
		if len(p.Rhs) == 0 {
			sb.WriteString(" ε")
		}
		for _, s := range p.Rhs {
			sb.WriteByte(' ')
			sb.WriteString(g.Name(s))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// termSet is a bitset over terminal symbols.
type termSet []uint64

func newTermSet(numTerminals int) termSet {
	return make(termSet, (numTerminals+63)/64)
}

func (t termSet) add(s Symbol) bool {
	w, b := s>>6, uint(s&63)
	if t[w]&(1<<b) != 0 {
		return false
	}
	t[w] |= 1 << b
	return true
}

func (t termSet) has(s Symbol) bool {
	return t[s>>6]&(1<<uint(s&63)) != 0
}

// unionWith merges o into t, reporting whether t changed.
func (t termSet) unionWith(o termSet) bool {
	changed := false
	for i := range t {
		if n := t[i] | o[i]; n != t[i] {
			t[i] = n
			changed = true
		}
	}
	return changed
}

func (t termSet) clone() termSet {
	c := make(termSet, len(t))
	copy(c, t)
	return c
}

func (t termSet) empty() bool {
	for _, w := range t {
		if w != 0 {
			return false
		}
	}
	return true
}

// each calls f for every member terminal.
func (t termSet) each(f func(Symbol)) {
	for wi, w := range t {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(Symbol(wi*64 + b))
			w &= w - 1
		}
	}
}
