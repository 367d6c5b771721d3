package rex

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Subset construction from the NFA to a DFA over byte classes. Accept
// priorities follow flex semantics: when a DFA state contains accept states
// of several patterns, the lowest pattern ID wins.

const noMatch = -1

// dfa is a deterministic automaton over bytes, stored in class-width rows:
// bytes of one input class take the same transition out of every state, so
// a state keeps one target per class.
type dfa struct {
	// next[s*len(reps)+c] is state s's target on class c, noMatch for none.
	next []int32
	// accept[s] is the pattern state s accepts, noMatch for none; its length
	// is the number of states.
	accept []int32
	// reps holds the smallest byte of each input class of the NFA the
	// automaton was built from (see nfa.byteClasses); classOf maps each byte
	// to its class, an index into reps.
	reps    []byte
	classOf [256]uint8
	// accepts[acceptAt[s]:acceptAt[s+1]] lists every pattern that accepts in
	// state s, ascending; accept is its first. Only the subset construction
	// records them: minimization merges states by accept alone, so a
	// minimized automaton has none.
	accepts, acceptAt []int32
}

func (d *dfa) numStates() int { return len(d.accept) }

// row returns state s's targets, one per class.
func (d *dfa) row(s int32) []int32 {
	k := len(d.reps)
	return d.next[int(s)*k : int(s+1)*k]
}

// step returns state s's target on byte b.
func (d *dfa) step(s int32, b byte) int32 {
	return d.next[int(s)*len(d.reps)+int(d.classOf[b])]
}

// acceptSet returns the patterns that accept in state s, ascending.
func (d *dfa) acceptSet(s int32) []int32 { return d.accepts[d.acceptAt[s]:d.acceptAt[s+1]] }

// buildDFA determinizes n by subset construction over its byte classes: all
// bytes of a class move the same way out of every subset, so a state takes
// one move per class, one ε-closure per distinct move, and a row of one
// target per class. States are found breadth first and renumbered at the
// end, depth first from the start with children in the order of their
// smallest byte — the numbering of a construction that visits the 256 bytes
// of each state in order and descends into every new subset at once.
func buildDFA(n *nfa) *dfa {
	classOf, reps := n.byteClasses()
	b := newSubsetBuilder(n, reps)
	b.intern(b.closure([]int32{int32(n.start)}))
	for s := int32(0); s < b.numStates(); s++ {
		b.expand(s)
	}
	return b.finish(classOf, reps)
}

// subsetBuilder holds one subset construction: the NFA state set, the row
// and the accepting patterns of every DFA state found so far, and scratch
// space the steps reuse.
type subsetBuilder struct {
	n *nfa
	k int // byte classes
	// moveOn[q] lists the classes NFA state q moves on; states with equal
	// byte classes share one list.
	moveOn [][]uint8
	// DFA state s has the sorted NFA state set sets[setAt[s]:setAt[s+1]], the
	// targets row(s) (noMatch for none) and the accepting patterns
	// accepts[acceptAt[s]:acceptAt[s+1]], ascending. The rows live in pages
	// that double in size, so a row never moves and no growth copies them.
	sets, setAt       []int32
	pages             [][]int32
	accepts, acceptAt []int32
	index             map[string]int32 // key of a state's set -> state
	noRow             []int32          // k noMatch targets: a new state's row

	moves         [][]int32 // per class: the NFA states its move reaches
	first         []uint8   // classes that opened a distinct move, in order
	mark          []uint32  // closure generation that last reached a state
	gen           uint32
	stack, closed []int32
	key           []byte
}

func newSubsetBuilder(n *nfa, reps []byte) *subsetBuilder {
	b := &subsetBuilder{
		n:        n,
		k:        len(reps),
		moveOn:   make([][]uint8, len(n.states)),
		setAt:    []int32{0},
		acceptAt: []int32{0},
		index:    map[string]int32{},
		moves:    make([][]int32, len(reps)),
		mark:     make([]uint32, len(n.states)),
		noRow:    make([]int32, len(reps)),
	}
	for c := range b.noRow {
		b.noRow[c] = noMatch
	}
	shared := map[class][]uint8{}
	for q := range n.states {
		st := &n.states[q]
		if st.out < 0 {
			continue
		}
		cs, ok := shared[st.cls]
		if !ok {
			for c, r := range reps {
				if st.cls.has(r) {
					cs = append(cs, uint8(c))
				}
			}
			shared[st.cls] = cs
		}
		b.moveOn[q] = cs
	}
	return b
}

func (b *subsetBuilder) numStates() int32 { return int32(len(b.setAt) - 1) }

// firstPageRows is the number of rows in each of the first two pages; every
// later page holds as many rows as all the pages before it.
const firstPageRows = 8

// row returns state s's targets.
func (b *subsetBuilder) row(s int32) []int32 {
	p, base := 0, int32(0)
	if s >= firstPageRows {
		p = bits.Len32(uint32(s / firstPageRows))
		base = firstPageRows << (p - 1)
	}
	o := int(s-base) * b.k
	return b.pages[p][o : o+b.k]
}

// closure returns the ε-closure of seed, sorted, in scratch space the next
// call reuses.
func (b *subsetBuilder) closure(seed []int32) []int32 {
	b.gen++
	stack, out := b.stack[:0], b.closed[:0]
	for _, q := range seed {
		if b.mark[q] != b.gen {
			b.mark[q] = b.gen
			stack = append(stack, q)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, q)
		for _, t := range b.n.states[q].eps {
			if b.mark[t] != b.gen {
				b.mark[t] = b.gen
				stack = append(stack, int32(t))
			}
		}
	}
	slices.Sort(out)
	b.stack, b.closed = stack, out
	return out
}

// intern returns the DFA state of a sorted NFA state set, adding it with an
// empty row when it is new.
func (b *subsetBuilder) intern(set []int32) int32 {
	// The key is the set's gaps as uvarints: sorted sets have small ones.
	key, prev := b.key[:0], int32(0)
	for _, q := range set {
		key = binary.AppendUvarint(key, uint64(q-prev))
		prev = q
	}
	b.key = key
	if s, ok := b.index[string(key)]; ok {
		return s
	}
	s := b.numStates()
	b.index[string(key)] = s
	b.sets = append(b.sets, set...)
	b.setAt = append(b.setAt, int32(len(b.sets)))
	if s == 0 || s >= firstPageRows && s&(s-1) == 0 { // the pages so far are full
		b.pages = append(b.pages, make([]int32, max(s, firstPageRows)*int32(b.k)))
	}
	copy(b.row(s), b.noRow)
	for _, q := range set {
		if a := b.n.states[q].accept; a >= 0 {
			b.accepts = append(b.accepts, int32(a))
		}
	}
	slices.Sort(b.accepts[b.acceptAt[s]:])
	b.acceptAt = append(b.acceptAt, int32(len(b.accepts)))
	return s
}

// expand fills state s's row. Classes whose moves reach the same NFA states
// share the first one's closure and target.
func (b *subsetBuilder) expand(s int32) {
	for c := range b.moves {
		b.moves[c] = b.moves[c][:0]
	}
	for _, q := range b.sets[b.setAt[s]:b.setAt[s+1]] {
		for _, c := range b.moveOn[q] {
			b.moves[c] = append(b.moves[c], int32(b.n.states[q].out))
		}
	}
	row, first := b.row(s), b.first[:0]
	for c, m := range b.moves {
		if len(m) == 0 {
			continue
		}
		t := int32(noMatch)
		for _, f := range first {
			if slices.Equal(b.moves[f], m) {
				t = row[f]
				break
			}
		}
		if t == noMatch {
			t = b.intern(b.closure(m))
			first = append(first, uint8(c))
		}
		row[c] = t
	}
	b.first = first
}

// finish renumbers the states depth first from the start, children in class
// order.
func (b *subsetBuilder) finish(classOf [256]uint8, reps []byte) *dfa {
	n, k := int(b.numStates()), b.k
	newID := make([]int32, n)
	for i := range newID {
		newID[i] = noMatch
	}
	order := make([]int32, 1, n) // order[i] is the state numbered i; the start keeps 0
	newID[0] = 0
	type frame struct {
		s int32
		c int
	}
	stack := []frame{{0, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.c == k {
			stack = stack[:len(stack)-1]
			continue
		}
		t := b.row(f.s)[f.c]
		f.c++
		if t != noMatch && newID[t] == noMatch {
			newID[t] = int32(len(order))
			order = append(order, t)
			stack = append(stack, frame{t, 0})
		}
	}

	d := &dfa{
		next:     make([]int32, n*k),
		accept:   make([]int32, n),
		reps:     reps,
		classOf:  classOf,
		accepts:  make([]int32, 0, len(b.accepts)),
		acceptAt: make([]int32, 1, n+1),
	}
	for i, old := range order {
		row := d.next[i*k : (i+1)*k]
		for c, t := range b.row(old) {
			if t != noMatch {
				t = newID[t]
			}
			row[c] = t
		}
		acc := b.accepts[b.acceptAt[old]:b.acceptAt[old+1]]
		d.accept[i] = noMatch
		if len(acc) > 0 {
			d.accept[i] = acc[0]
		}
		d.accepts = append(d.accepts, acc...)
		d.acceptAt = append(d.acceptAt, int32(len(d.accepts)))
	}
	return d
}

// dfaRun scans input from the start and returns the pattern ID and length of
// the longest match (ties broken toward the lowest ID at the same length), or
// (noMatch, 0) when no prefix matches. It is generic over string and []byte
// so the per-line MatchString path never copies its input: methods cannot
// take type parameters, so the scanner step lives in a free function. The
// loop indexes rather than ranges — ranging a string yields runes.
//
//aarohi:hotpath
func dfaRun[T ~string | ~[]byte](d *dfa, input T) (id, length int) {
	next, accept, k := d.next, d.accept, len(d.reps)
	st := int32(0)
	id, length = noMatch, 0
	if a := accept[0]; a != noMatch {
		id, length = int(a), 0
	}
	for i := 0; i < len(input); i++ {
		st = next[int(st)*k+int(d.classOf[input[i]])]
		if st == noMatch {
			return id, length
		}
		if a := accept[st]; a != noMatch {
			id, length = int(a), i+1
		}
	}
	return id, length
}

func (d *dfa) run(input []byte) (id, length int) { return dfaRun(d, input) }

// Regexp is a compiled single pattern.
type Regexp struct {
	pattern string
	d       *dfa
}

// Compile parses and compiles one pattern.
func Compile(pattern string) (*Regexp, error) {
	ast, err := parsePattern(pattern)
	if err != nil {
		return nil, err
	}
	return &Regexp{pattern: pattern, d: buildDFA(buildNFA([]*node{ast}))}, nil
}

// MustCompile is Compile that panics on error, for static patterns.
func MustCompile(pattern string) *Regexp {
	re, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return re
}

// Pattern returns the source pattern.
func (re *Regexp) Pattern() string { return re.pattern }

func (re *Regexp) String() string { return fmt.Sprintf("rex(%q)", re.pattern) }

// MatchString reports whether the pattern matches the entire string. It runs
// the automaton over the string directly — no []byte conversion, no copy.
func (re *Regexp) MatchString(s string) bool {
	id, n := dfaRun(re.d, s)
	return id != noMatch && n == len(s)
}

// Match reports whether the pattern matches the entire input.
func (re *Regexp) Match(b []byte) bool {
	id, n := re.d.run(b)
	return id != noMatch && n == len(b)
}

// MatchPrefix returns the length of the longest prefix of b matched by the
// pattern, or -1 when no prefix (not even the empty one) matches.
func (re *Regexp) MatchPrefix(b []byte) int {
	id, n := re.d.run(b)
	if id == noMatch {
		return -1
	}
	return n
}

// NumStates reports the DFA size; exposed for tests and ablation benchmarks.
func (re *Regexp) NumStates() int { return re.d.numStates() }

// Set is a prioritized union of patterns compiled into a single DFA — the
// combined scanner automaton. Pattern IDs are their indices in the slice
// passed to CompileSet; lower indices take priority on equal-length matches,
// matching flex's rule-order semantics.
type Set struct {
	patterns []string
	d        *dfa
	packed   *packedDFA // non-nil after Pack; used by Match when present
}

// CompileSet compiles all patterns into one DFA.
func CompileSet(patterns []string) (*Set, error) {
	asts := make([]*node, len(patterns))
	for i, p := range patterns {
		ast, err := parsePattern(p)
		if err != nil {
			return nil, fmt.Errorf("pattern %d: %w", i, err)
		}
		asts[i] = ast
	}
	return &Set{patterns: append([]string(nil), patterns...), d: buildDFA(buildNFA(asts))}, nil
}

// Size returns the number of patterns in the set.
func (s *Set) Size() int { return len(s.patterns) }

// NumStates reports the combined DFA size.
func (s *Set) NumStates() int { return s.d.numStates() }

// Match scans input from the start and returns the ID of the matching
// pattern and the match length. The longest match wins; among patterns
// matching at the same longest length the smallest ID wins. Returns (-1, 0)
// when no pattern matches a prefix of input.
func (s *Set) Match(input []byte) (id, length int) {
	if s.packed != nil {
		return scanPacked(s.packed, input)
	}
	return dfaRun(s.d, input)
}

// MatchString is Match on a string, running the automaton over the string
// directly — the per-line scan path must not copy every message into a
// fresh []byte.
func (s *Set) MatchString(input string) (id, length int) {
	if s.packed != nil {
		return scanPacked(s.packed, input)
	}
	return dfaRun(s.d, input)
}
