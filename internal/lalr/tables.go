package lalr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Action encoding: 2 low bits select the kind, the rest is the operand.
type actionEntry int32

const (
	actErr    actionEntry = 0
	actShift  actionEntry = 1 // operand: target state
	actReduce actionEntry = 2 // operand: production index (in g.prods)
	actAccept actionEntry = 3
)

func encode(kind actionEntry, operand int) actionEntry {
	return actionEntry(operand)<<2 | kind
}

func (a actionEntry) kind() actionEntry { return a & 3 }
func (a actionEntry) operand() int      { return int(a >> 2) }

// Conflict describes an LR table conflict as structured data, so tools
// (aarohivet's grammar-health check in particular) can map it back to the
// productions — and from there to the failure chains — involved.
type Conflict struct {
	// State is the automaton state the conflict occurs in.
	State int
	// Symbol is the lookahead terminal the actions collide on.
	Symbol Symbol
	// Kind is "shift/reduce" or "reduce/reduce".
	Kind string
	// Prods lists the implicated productions as 0-based user production
	// indices (the indexing of Grammar.Production): every reduction party
	// to the conflict, plus — for shift/reduce — the productions whose
	// items want to shift the symbol. Sorted and deduplicated.
	Prods []int
	// Detail is the human-readable rendering of the colliding actions.
	Detail string
}

func (c Conflict) String() string {
	return fmt.Sprintf("state %d: %s conflict (%s)", c.State, c.Kind, c.Detail)
}

// ConflictError aggregates all conflicts found during table construction.
type ConflictError struct {
	Conflicts []Conflict
}

func (e *ConflictError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "lalr: %d conflict(s):", len(e.Conflicts))
	for _, c := range e.Conflicts {
		sb.WriteString("\n  ")
		sb.WriteString(c.String())
	}
	return sb.String()
}

// Tables holds the generated LALR(1) ACTION and GOTO tables.
type Tables struct {
	g         *Grammar
	action    [][]actionEntry // [state][terminal]
	gotoTab   [][]int32       // [state][symbol - numTerminals]
	userStart Symbol
	starts    []bool // [terminal] → CanStart, filled by computeStarts
}

// BuildTables runs the full LALR(1) construction and returns the parse
// tables, or a *ConflictError if the grammar is not LALR(1).
func BuildTables(g *Grammar) (*Tables, error) {
	t, conflicts := buildLALR(g)
	if len(conflicts) > 0 {
		return nil, &ConflictError{Conflicts: conflicts}
	}
	return t, nil
}

// Conflicts runs the LALR(1) construction and returns every table conflict
// as structured data, nil when the grammar is LALR(1)-clean. Unlike
// BuildTables it never fails: it exists for analysis tools that want the
// conflict inventory itself rather than usable tables.
func Conflicts(g *Grammar) []Conflict {
	_, conflicts := buildLALR(g)
	return conflicts
}

// buildLALR is the shared LALR(1) table construction: it always completes,
// collecting conflicts instead of aborting (the first action claimed for an
// (state, terminal) cell wins, as in bison).
func buildLALR(g *Grammar) (*Tables, []Conflict) {
	a := buildAutomaton(g)
	kernLA := computeLookaheads(a)
	t := newTables(g, len(a.states), func(si int) map[Symbol]int { return a.states[si].gotos })
	var conflicts []Conflict
	for si, st := range a.states {
		// Reduce actions come from the LR(1) closure of the kernel with its
		// final LALR lookaheads (this also covers ε-production items that
		// only appear in the closure).
		cl := g.closure1(st.kernel, kernLA[si], g.numTerminals)
		// shiftProds lists, per terminal, the productions whose closure items
		// shift that terminal here — the "shift side" of any conflict.
		shiftProds := map[Symbol][]int{}
		for it := range cl {
			p := g.prods[it.prod]
			if it.dot < len(p.Rhs) {
				if sym := p.Rhs[it.dot]; g.isTerminal(sym) {
					shiftProds[sym] = append(shiftProds[sym], it.prod)
				}
			}
		}
		// Iterate closure items in a fixed order so that which action claims
		// a conflicted cell first — and therefore the conflict rendering —
		// is deterministic run to run.
		items := make([]item, 0, len(cl))
		for it := range cl {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i].less(items[j]) })
		for _, it := range items {
			las := cl[it]
			p := g.prods[it.prod]
			if it.dot < len(p.Rhs) {
				continue
			}
			prodIdx := it.prod
			las.each(func(term Symbol) {
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
						Prods:  userProds(append([]int{prodIdx}, shiftProds[term]...)),
						Detail: fmt.Sprintf("on %s: shift %d vs reduce %s", g.Name(term), existing.operand(), a.itemString(it)),
					})
				case actReduce, actAccept:
					if existing != entry {
						conflicts = append(conflicts, Conflict{
							State: si, Symbol: term, Kind: "reduce/reduce",
							Prods:  userProds([]int{existing.operand(), prodIdx}),
							Detail: fmt.Sprintf("on %s: reduce %d vs reduce %d", g.Name(term), existing.operand(), prodIdx),
						})
					}
				}
			})
		}
	}
	t.computeStarts()
	return t, conflicts
}

// newTables allocates the ACTION and GOTO tables of an n-state automaton and
// fills in each state's transitions, gotos(si): a terminal shifts, a
// nonterminal goes to, every other cell is an error. The builders add the
// reductions.
func newTables(g *Grammar, n int, gotos func(si int) map[Symbol]int) *Tables {
	numNT := g.numSymbols - g.numTerminals
	t := &Tables{
		g:         g,
		action:    make([][]actionEntry, n),
		gotoTab:   make([][]int32, n),
		userStart: g.prods[0].Rhs[0],
	}
	for si := range n {
		t.action[si] = make([]actionEntry, g.numTerminals)
		t.gotoTab[si] = make([]int32, numNT)
		for i := range t.gotoTab[si] {
			t.gotoTab[si][i] = -1
		}
		for sym, tgt := range gotos(si) {
			if g.isTerminal(sym) {
				t.action[si][sym] = encode(actShift, tgt)
			} else {
				t.gotoTab[si][int(sym)-g.numTerminals] = int32(tgt)
			}
		}
	}
	return t
}

// userProds converts internal production indices (where 0 is the augmented
// start) into sorted, deduplicated 0-based user indices, dropping the
// augmentation.
func userProds(internal []int) []int {
	var out []int
	for _, p := range internal {
		if p > 0 {
			out = append(out, p-1)
		}
	}
	sort.Ints(out)
	return slices.Compact(out)
}

// NumStates returns the state count of the LALR automaton.
func (t *Tables) NumStates() int { return len(t.action) }

// Grammar returns the grammar the tables were generated from.
func (t *Tables) Grammar() *Grammar { return t.g }

// CanShift reports whether terminal sym has any action (shift or reduce) in
// state top — i.e., whether the symbol can continue a parse from that state.
func (t *Tables) hasAction(state int, sym Symbol) bool {
	return t.action[state][sym].kind() != actErr
}

// FeedResult reports the outcome of feeding one token to a Machine.
type FeedResult uint8

const (
	// Shifted: the token was consumed; the parse continues.
	Shifted FeedResult = iota
	// Rejected: the token cannot continue the parse; the machine state is
	// unchanged (the caller may skip the token, per Aarohi's semantics).
	Rejected
)

// Machine is a stepping LALR(1) parser over a Tables. It is the runtime the
// Aarohi online driver wraps: tokens are fed one at a time, rejection leaves
// the state untouched so the driver can implement skip/timeout/reset
// semantics, and WouldAccept probes whether the input consumed so far forms a
// complete sentence (a fully matched failure chain).
type Machine struct {
	t       *Tables
	stack   []int32
	scratch []int32
}

// NewMachine returns a machine positioned at the start state.
func NewMachine(t *Tables) *Machine {
	m := &Machine{t: t}
	m.Reset()
	return m
}

// Reset returns the machine to the start state.
func (m *Machine) Reset() {
	m.stack = append(m.stack[:0], 0)
}

// Depth returns the current parse-stack depth (1 when freshly reset).
func (m *Machine) Depth() int { return len(m.stack) }

// Stack returns a copy of the parse stack, bottom (start state) first. It is
// the serializable representation of the machine's entire mutable state, for
// checkpointing a mid-flight parse.
func (m *Machine) Stack() []int32 {
	return append([]int32(nil), m.stack...)
}

// SetStack replaces the parse stack with a previously captured one,
// validating it against the tables: it must be non-empty, rooted at the
// start state, and name only existing states. The machine is unchanged on
// error.
func (m *Machine) SetStack(stack []int32) error {
	if len(stack) == 0 {
		return fmt.Errorf("lalr: empty parse stack")
	}
	if stack[0] != 0 {
		return fmt.Errorf("lalr: parse stack not rooted at start state (bottom = %d)", stack[0])
	}
	for _, s := range stack {
		if s < 0 || int(s) >= len(m.t.action) {
			return fmt.Errorf("lalr: parse stack names state %d of %d", s, len(m.t.action))
		}
	}
	m.stack = append(m.stack[:0], stack...)
	return nil
}

// Feed advances the parse with one terminal. On Rejected the stack is
// restored to its pre-call state.
func (m *Machine) Feed(sym Symbol) FeedResult {
	if sym == EOF || int(sym) >= m.t.g.numTerminals {
		return Rejected
	}
	m.scratch = append(m.scratch[:0], m.stack...)
	for {
		top := m.stack[len(m.stack)-1]
		act := m.t.action[top][sym]
		switch act.kind() {
		case actShift:
			m.stack = append(m.stack, int32(act.operand()))
			return Shifted
		case actReduce:
			p := m.t.g.prods[act.operand()]
			m.stack = m.stack[:len(m.stack)-len(p.Rhs)]
			ntop := m.stack[len(m.stack)-1]
			g := m.t.gotoTab[ntop][int(p.Lhs)-m.t.g.numTerminals]
			if g < 0 {
				m.stack = append(m.stack[:0], m.scratch...)
				return Rejected
			}
			m.stack = append(m.stack, g)
		default: // error or accept-on-non-EOF
			m.stack = append(m.stack[:0], m.scratch...)
			return Rejected
		}
	}
}

// CanStart reports whether sym can be the first token of a sentence, i.e.
// whether feeding it to a fresh machine would shift. It reads a table, so a
// parser may ask on every token.
func (t *Tables) CanStart(sym Symbol) bool {
	return sym > EOF && int(sym) < len(t.starts) && t.starts[sym]
}

// computeStarts fills the CanStart table by feeding every terminal to a fresh
// machine — for FC grammars state 0 only shifts, but walking its reduces
// keeps the answer general. Every table construction ends with it.
func (t *Tables) computeStarts() {
	t.starts = make([]bool, t.g.numTerminals)
	m := NewMachine(t)
	for sym := Symbol(1); int(sym) < t.g.numTerminals; sym++ {
		m.Reset()
		t.starts[sym] = m.Feed(sym) == Shifted
	}
}

// WouldAccept probes whether feeding EOF now would accept, without modifying
// the machine. It returns the Tag of the last user production with the
// grammar's start symbol on its LHS reduced during the probe — for Aarohi
// grammars this is the matched failure chain — and ok=true on acceptance.
func (m *Machine) WouldAccept() (tag int, ok bool) {
	stack := append(m.scratch[:0], m.stack...)
	defer func() { m.scratch = stack[:0] }()
	tag = -1
	for steps := 0; steps < 10000; steps++ {
		top := stack[len(stack)-1]
		act := m.t.action[top][EOF]
		switch act.kind() {
		case actAccept:
			return tag, true
		case actReduce:
			p := m.t.g.prods[act.operand()]
			if p.Lhs == m.t.userStart {
				tag = p.Tag
			}
			stack = stack[:len(stack)-len(p.Rhs)]
			ntop := stack[len(stack)-1]
			g := m.t.gotoTab[ntop][int(p.Lhs)-m.t.g.numTerminals]
			if g < 0 {
				return -1, false
			}
			stack = append(stack, g)
		default:
			return -1, false
		}
	}
	return -1, false
}

// Parse is a convenience driver for tests: it feeds every token strictly (no
// skipping) and reports whether the whole sequence is a sentence of the
// grammar, along with the accepted top-level production tag.
func (t *Tables) Parse(tokens []Symbol) (tag int, ok bool) {
	m := NewMachine(t)
	for _, tok := range tokens {
		if m.Feed(tok) != Shifted {
			return -1, false
		}
	}
	return m.WouldAccept()
}
