package lalr

// Alternative LR table constructions, for comparison with the LALR(1)
// pipeline (bison similarly offers LALR and canonical-LR):
//
//   - SLR(1): reduce on FOLLOW(lhs). Simplest, weakest — rejects e.g. the
//     dragon-book grammar 4.42 that LALR accepts.
//   - Canonical LR(1): full item-with-lookahead states. Strongest of the
//     three deterministic constructions, at the cost of (often far) more
//     states.
//
// The Aarohi chain grammars are comfortably within SLR for most chain sets,
// within LALR always (with the factoring fallback); the ablation harness
// compares state counts and construction time across all three.

import (
	"fmt"
	"sort"
	"strings"
)

// Method selects a table-construction algorithm.
type Method int

const (
	// MethodLALR is the default construction (the paper's choice).
	MethodLALR Method = iota
	// MethodSLR is SLR(1): LR(0) automaton + FOLLOW-based reductions.
	MethodSLR
	// MethodCanonical is canonical LR(1).
	MethodCanonical
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodLALR:
		return "LALR(1)"
	case MethodSLR:
		return "SLR(1)"
	case MethodCanonical:
		return "LR(1)"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// BuildTablesMethod runs the chosen construction.
func BuildTablesMethod(g *Grammar, m Method) (*Tables, error) {
	switch m {
	case MethodLALR:
		return BuildTables(g)
	case MethodSLR:
		return buildSLR(g)
	case MethodCanonical:
		return buildCanonical(g)
	}
	return nil, fmt.Errorf("lalr: unknown method %v", m)
}

// follow computes FOLLOW sets for every nonterminal.
func (g *Grammar) follow() []termSet {
	follow := make([]termSet, g.numSymbols)
	for s := range follow {
		follow[s] = newTermSet(g.numTerminals)
	}
	follow[g.start].add(EOF)
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			for i, s := range p.Rhs {
				if g.isTerminal(s) {
					continue
				}
				// FIRST of the tail after s.
				tail := p.Rhs[i+1:]
				tmp := newTermSet(g.numTerminals)
				nullableTail := g.firstOfSeq(tmp, tail, follow[p.Lhs])
				_ = nullableTail
				if follow[s].unionWith(tmp) {
					changed = true
				}
			}
		}
	}
	return follow
}

// buildSLR constructs SLR(1) tables on the LR(0) automaton.
func buildSLR(g *Grammar) (*Tables, error) {
	a := buildAutomaton(g)
	follow := g.follow()
	t := newTables(g, len(a.states), func(si int) map[Symbol]int { return a.states[si].gotos })
	var conflicts []Conflict
	for si, st := range a.states {
		for _, it := range g.closure(st.kernel) {
			p := g.prods[it.prod]
			if it.dot < len(p.Rhs) {
				continue
			}
			prodIdx := it.prod
			la := follow[p.Lhs]
			la.each(func(term Symbol) {
				var entry actionEntry
				if prodIdx == 0 {
					entry = encode(actAccept, 0)
				} else {
					entry = encode(actReduce, prodIdx)
				}
				existing := t.action[si][term]
				switch existing.kind() {
				case actErr:
					t.action[si][term] = entry
				case actShift:
					conflicts = append(conflicts, Conflict{
						State: si, Symbol: term, Kind: "shift/reduce",
						Prods:  userProds([]int{prodIdx}),
						Detail: fmt.Sprintf("SLR on %s", g.Name(term)),
					})
				default:
					if existing != entry {
						conflicts = append(conflicts, Conflict{
							State: si, Symbol: term, Kind: "reduce/reduce",
							Prods:  userProds([]int{existing.operand(), prodIdx}),
							Detail: fmt.Sprintf("SLR on %s", g.Name(term)),
						})
					}
				}
			})
		}
	}
	if len(conflicts) > 0 {
		return nil, &ConflictError{Conflicts: conflicts}
	}
	t.computeStarts()
	return t, nil
}

// lr1Item is an LR(1) item: LR(0) item plus one lookahead terminal.
type lr1Item struct {
	prod, dot int
	la        Symbol
}

// buildCanonical constructs canonical LR(1) tables.
func buildCanonical(g *Grammar) (*Tables, error) {
	type state1 struct {
		kernel []lr1Item
		gotos  map[Symbol]int
	}

	closure := func(kernel []lr1Item) []lr1Item {
		items := append([]lr1Item(nil), kernel...)
		seen := map[lr1Item]bool{}
		for _, it := range items {
			seen[it] = true
		}
		for i := 0; i < len(items); i++ {
			it := items[i]
			rhs := g.prods[it.prod].Rhs
			if it.dot >= len(rhs) {
				continue
			}
			next := rhs[it.dot]
			if g.isTerminal(next) {
				continue
			}
			// Lookaheads: FIRST(β · la).
			ext := newTermSet(g.numTerminals)
			laSet := newTermSet(g.numTerminals)
			laSet.add(it.la)
			g.firstOfSeq(ext, rhs[it.dot+1:], laSet)
			for _, pi := range g.prodsByLhs[next] {
				ext.each(func(la Symbol) {
					ni := lr1Item{prod: pi, dot: 0, la: la}
					if !seen[ni] {
						seen[ni] = true
						items = append(items, ni)
					}
				})
			}
		}
		return items
	}

	key := func(kernel []lr1Item) string {
		sort.Slice(kernel, func(i, j int) bool {
			a, b := kernel[i], kernel[j]
			if a.prod != b.prod {
				return a.prod < b.prod
			}
			if a.dot != b.dot {
				return a.dot < b.dot
			}
			return a.la < b.la
		})
		var sb strings.Builder
		for _, it := range kernel {
			fmt.Fprintf(&sb, "%d.%d.%d;", it.prod, it.dot, it.la)
		}
		return sb.String()
	}

	var states []*state1
	index := map[string]int{}
	intern := func(kernel []lr1Item) int {
		k := key(kernel)
		if id, ok := index[k]; ok {
			return id
		}
		id := len(states)
		states = append(states, &state1{kernel: kernel, gotos: map[Symbol]int{}})
		index[k] = id
		return id
	}
	intern([]lr1Item{{prod: 0, dot: 0, la: EOF}})

	for si := 0; si < len(states); si++ {
		st := states[si]
		full := closure(st.kernel)
		bySym := map[Symbol][]lr1Item{}
		var order []Symbol
		for _, it := range full {
			rhs := g.prods[it.prod].Rhs
			if it.dot >= len(rhs) {
				continue
			}
			s := rhs[it.dot]
			if _, ok := bySym[s]; !ok {
				order = append(order, s)
			}
			bySym[s] = append(bySym[s], lr1Item{prod: it.prod, dot: it.dot + 1, la: it.la})
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, s := range order {
			st.gotos[s] = intern(bySym[s])
		}
	}

	// Tables.
	t := newTables(g, len(states), func(si int) map[Symbol]int { return states[si].gotos })
	var conflicts []Conflict
	for si, st := range states {
		for _, it := range closure(st.kernel) {
			p := g.prods[it.prod]
			if it.dot < len(p.Rhs) {
				continue
			}
			var entry actionEntry
			if it.prod == 0 {
				entry = encode(actAccept, 0)
			} else {
				entry = encode(actReduce, it.prod)
			}
			existing := t.action[si][it.la]
			switch existing.kind() {
			case actErr:
				t.action[si][it.la] = entry
			case actShift:
				conflicts = append(conflicts, Conflict{
					State: si, Symbol: it.la, Kind: "shift/reduce",
					Prods:  userProds([]int{it.prod}),
					Detail: fmt.Sprintf("LR(1) on %s", g.Name(it.la)),
				})
			default:
				if existing != entry {
					conflicts = append(conflicts, Conflict{
						State: si, Symbol: it.la, Kind: "reduce/reduce",
						Prods:  userProds([]int{existing.operand(), it.prod}),
						Detail: fmt.Sprintf("LR(1) on %s", g.Name(it.la)),
					})
				}
			}
		}
	}
	if len(conflicts) > 0 {
		return nil, &ConflictError{Conflicts: conflicts}
	}
	t.computeStarts()
	return t, nil
}
